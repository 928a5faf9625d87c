package fft

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/cmmd"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Result holds the outcome of a distributed 2-D FFT run.
type Result struct {
	// Out is the transform in transposed layout: Out[c][r] equals
	// FFT2D(input)[r][c]. The paper's implementation also stops after
	// the second set of row FFTs without transposing back.
	Out [][]complex128
	// Elapsed is the simulated wall time of the slowest node.
	Elapsed sim.Time
	// BytesPerPair is the transpose block size each processor pair
	// exchanged.
	BytesPerPair int
}

// Options configures a distributed 2-D FFT run.
type Options struct {
	// Alg names the transpose's complete-exchange algorithm: one of the
	// registry's paper exchanges (sched.FamilyNames(sched.KindExchange)).
	Alg string
	// TraceSink, when non-nil, receives every data-network message
	// event of the run (cmmd.Machine.SetTraceSink) — the recording
	// entry point of internal/trace. It never changes simulated timing.
	TraceSink func(cmmd.MsgEvent)
}

// Run2D executes the paper's distributed 2-D FFT on nprocs simulated
// nodes, transposing with the complete exchange opts.Alg names. The
// input array is rows x cols, both powers of two and divisible by
// nprocs. The transpose is planned once per run, before any node starts.
func Run2D(nprocs int, input [][]complex128, opts Options, cfg network.Config) (*Result, error) {
	rows := len(input)
	if rows == 0 {
		return nil, fmt.Errorf("fft: empty input")
	}
	cols := len(input[0])
	if rows%nprocs != 0 || cols%nprocs != 0 {
		return nil, fmt.Errorf("fft: %dx%d array not divisible by %d processors", rows, cols, nprocs)
	}
	if rows&(rows-1) != 0 || cols&(cols-1) != 0 {
		return nil, fmt.Errorf("fft: dimensions must be powers of two")
	}
	alg, err := sched.Lookup(opts.Alg)
	if err != nil {
		return nil, err
	}
	if alg.Kind != sched.KindExchange || alg.Aux {
		return nil, fmt.Errorf("fft: %s is not one of the complete exchanges (%s)",
			alg.Name, strings.Join(sched.FamilyNames(sched.KindExchange), " "))
	}
	rpb := rows / nprocs // rows per block
	cpb := cols / nprocs // cols per block
	blockBytes := rpb * cpb * 8
	// REX moves real blocks as rexAllToAll does: store and forward, with
	// 12-byte routing headers and its own pack costs. The registry's REX
	// program (sched.ExecuteREXNode) sends synthetic payloads of the
	// schedule's sizes, so running it here would change Table 5. A nil
	// schedule selects rexAllToAll.
	var index *sched.Index
	if alg.Name != "REX" {
		s, err := alg.Plan(sched.Request{N: nprocs, Bytes: blockBytes})
		if err != nil {
			return nil, err
		}
		index = sched.NewIndex(s)
	}

	m, err := cmmd.NewMachine(nprocs, cfg)
	if err != nil {
		return nil, err
	}
	if opts.TraceSink != nil {
		m.SetTraceSink(opts.TraceSink)
	}
	out := make([][]complex128, cols)

	program := func(n *cmmd.Node) {
		me := n.ID()
		// Local copy of this node's rows.
		local := make([][]complex128, rpb)
		for r := 0; r < rpb; r++ {
			local[r] = append([]complex128(nil), input[me*rpb+r]...)
		}
		// Phase 1: row FFTs.
		for r := 0; r < rpb; r++ {
			FFT(local[r])
			n.ComputeFlops(FFTFlops(cols))
		}
		// Phase 2: transpose via complete exchange. After this, node me
		// owns columns [me*cpb, (me+1)*cpb), each of length rows.
		newRows := make([][]complex128, cpb)
		for c := range newRows {
			newRows[c] = make([]complex128, rows)
		}
		// packBlock encodes the block for dst into buf, column by
		// column, straight from local; placeBlock decodes a payload
		// straight into newRows.
		packBlock := func(buf []byte, dst int) []byte {
			i := 0
			for c := 0; c < cpb; c++ {
				for r := 0; r < rpb; r++ {
					putComplex64(buf[i:], local[r][dst*cpb+c])
					i += 8
				}
			}
			return buf
		}
		placeBlock := func(src int, payload []byte) {
			i := 0
			for c := 0; c < cpb; c++ {
				for r := 0; r < rpb; r++ {
					newRows[c][src*rpb+r] = getComplex64(payload[i:])
					i += 8
				}
			}
		}
		// One send buffer serves every block: a synchronous send copies
		// the payload for the receiver at the rendezvous, and an
		// asynchronous one snapshots it, before Send returns.
		sendBuf := make([]byte, blockBytes)
		// The local block never touches the network.
		n.MemCopy(blockBytes)
		placeBlock(me, packBlock(sendBuf, me))

		if index == nil {
			// REX retains the blocks it forwards, so each gets its own.
			pack := func(dst int) []byte { return packBlock(make([]byte, blockBytes), dst) }
			rexAllToAll(n, blockBytes, pack, placeBlock)
		} else {
			hooks := sched.DataHooks{
				OnSend: func(step, src, dst int) []byte {
					n.MemCopy(blockBytes) // pack
					return packBlock(sendBuf, dst)
				},
				OnRecv: func(step int, msg cmmd.Message) {
					n.MemCopy(len(msg.Data)) // unpack
					placeBlock(msg.Src, msg.Data)
				},
			}
			sched.ExecuteNode(n, index, hooks)
		}

		// Phase 3: row FFTs on the transposed data.
		for c := 0; c < cpb; c++ {
			FFT(newRows[c])
			n.ComputeFlops(FFTFlops(rows))
		}
		for c := 0; c < cpb; c++ {
			out[me*cpb+c] = newRows[c]
		}
	}

	elapsed, err := m.Run(program)
	if err != nil {
		return nil, err
	}
	return &Result{Out: out, Elapsed: elapsed, BytesPerPair: blockBytes}, nil
}

// rexAllToAll performs the store-and-forward recursive-exchange all-to-all
// of Figure 3 with real data: lg N steps; at step k a node exchanges with
// its partner every block (original or forwarded) whose final destination
// lies on the partner's side of the current bisection, as one combined
// message of about blockBytes*N/2 plus routing headers.
func rexAllToAll(n *cmmd.Node, blockBytes int, pack func(dst int) []byte, place func(src int, payload []byte)) {
	nprocs := n.N()
	me := n.ID()
	// Start with my blocks for everyone else.
	var items []rexItem
	for dst := 0; dst < nprocs; dst++ {
		if dst != me {
			n.MemCopy(blockBytes) // pack
			items = append(items, rexItem{origin: me, dest: dst, payload: pack(dst)})
		}
	}
	for k := 0; nprocs>>uint(k) >= 2; k++ {
		peer := sched.REXPartner(me, k, nprocs)
		bit := uint(sched.LgN(nprocs) - 1 - k)
		// Split items: those whose destination is on the peer's side of
		// bit move across; the rest stay.
		var keep, send []rexItem
		for _, it := range items {
			if (it.dest>>bit)&1 != (me>>bit)&1 {
				send = append(send, it)
			} else {
				keep = append(keep, it)
			}
		}
		msg := encodeItems(send)
		var incoming []byte
		if me < peer {
			n.MemCopy(len(msg)) // pack combined message
			n.Send(peer, k, msg)
			incoming = n.Recv(peer, k).Data
			n.MemCopy(len(incoming)) // unpack
		} else {
			incoming = n.Recv(peer, k).Data
			n.MemCopy(len(incoming))
			n.MemCopy(len(msg))
			n.Send(peer, k, msg)
		}
		items = append(keep, decodeItems(incoming)...)
	}
	for _, it := range items {
		if it.dest != me {
			panic(fmt.Sprintf("fft: REX left block %d->%d at node %d", it.origin, it.dest, me))
		}
		place(it.origin, it.payload)
	}
}

// rexItem is one routed block inside a combined REX message.
type rexItem struct {
	origin, dest int
	payload      []byte
}

func encodeItems(items []rexItem) []byte {
	size := 0
	for _, it := range items {
		size += 12 + len(it.payload)
	}
	buf := make([]byte, 0, size)
	var hdr [12]byte
	for _, it := range items {
		binary.LittleEndian.PutUint32(hdr[0:], uint32(it.origin))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(it.dest))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(it.payload)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, it.payload...)
	}
	return buf
}

func decodeItems(buf []byte) []rexItem {
	var items []rexItem
	for off := 0; off < len(buf); {
		origin := int(binary.LittleEndian.Uint32(buf[off:]))
		dest := int(binary.LittleEndian.Uint32(buf[off+4:]))
		plen := int(binary.LittleEndian.Uint32(buf[off+8:]))
		off += 12
		items = append(items, rexItem{origin, dest, append([]byte(nil), buf[off:off+plen]...)})
		off += plen
	}
	return items
}
