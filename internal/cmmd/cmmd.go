// Package cmmd provides a CMMD-like node programming model on top of the
// CM-5 simulator: each simulated SPARC node runs a Go function and
// communicates through synchronous (rendezvous) message passing, plus
// control-network collectives.
//
// The semantics deliberately mirror the CMMD library version the paper
// used: "the current version of CM-5 software supports only synchronous
// communication". A Send blocks until the destination posts a matching
// Recv and the transfer completes; a node serves one rendezvous at a
// time. This receiver-side serialization is the effect that makes the
// paper's Linear Exchange and Linear Scheduling algorithms collapse.
//
// Timing model per message:
//
//	sender:   SendOverhead (CPU) -> wait for rendezvous -> transfer -> return
//	transfer: WireLatency + wire bytes at the flow's max-min fair rate
//	receiver: wait for sender -> transfer -> RecvOverhead (copy-out) -> return
//
// A lone 0-byte message therefore costs SendOverhead + WireLatency +
// 1 packet + RecvOverhead = 88 us with the default configuration — the
// paper's measured CM-5 latency.
package cmmd

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Wildcards for Recv matching.
const (
	AnySrc = -1
	AnyTag = -1
)

// Message is a received message.
type Message struct {
	Src  int
	Tag  int
	Data []byte // nil for size-only messages sent with SendN
	Size int    // user bytes (== len(Data) when Data != nil)
}

// sendReq is a sender waiting to rendezvous with the destination
// (synchronous mode), or an in-flight buffered message (asynchronous
// mode).
type sendReq struct {
	src, dst, tag int
	data          []byte
	size          int
	proc          *sim.Proc

	// Asynchronous-mode state.
	async   bool
	arrived bool
	waiter  *recvReq // receiver parked on this in-flight message

	posted sim.Time // when the sender entered the rendezvous (for tracing)
}

// recvReq is a posted receive waiting for a matching sender.
type recvReq struct {
	src, tag int // wanted source/tag (may be AnySrc/AnyTag)
	proc     *sim.Proc
	result   Message
	got      bool
}

// Node is one simulated processing node. All methods must be called from
// the node's own program function.
type Node struct {
	id   int
	m    *Machine
	proc *sim.Proc

	pendingSends []*sendReq // inbound senders in arrival order
	postedRecv   *recvReq   // at most one: programs are single-threaded

	finished sim.Time
	sends    int
	recvs    int
	sentUser int64

	// slow is the straggler multiplier applied to every local time cost
	// (send/recv overheads, memory copies, compute) from the moment a
	// fault event sets it; 0 means healthy. Engine-set, engine-read.
	slow float64
}

// ID returns this node's rank in [0, N).
func (n *Node) ID() int { return n.id }

// N returns the partition size.
func (n *Node) N() int { return len(n.m.nodes) }

// Now returns the current virtual time.
func (n *Node) Now() sim.Time { return n.proc.Now() }

// Machine returns the machine this node belongs to.
func (n *Node) Machine() *Machine { return n.m }

// Compute advances this node's virtual time by d (models local CPU
// work). A straggler node (see Machine.ApplyFaults) stretches every
// local cost by its slowdown factor.
func (n *Node) Compute(d sim.Time) { n.proc.Sleep(n.scaled(d)) }

// scaled applies the node's straggler slowdown to a local time cost.
func (n *Node) scaled(d sim.Time) sim.Time {
	if n.slow > 1 {
		return sim.Time(float64(d)*n.slow + 0.5)
	}
	return d
}

// ComputeFlops models executing the given number of floating-point
// operations at the configured node throughput.
func (n *Node) ComputeFlops(flops float64) {
	n.Compute(n.m.cfg.ComputeTime(flops))
}

// MemCopy models a node-local copy of nbytes (used for pack/unpack).
func (n *Node) MemCopy(nbytes int) {
	n.Compute(n.m.cfg.MemCopyTime(nbytes))
}

// Send transmits data to node dst with the given tag and blocks until the
// transfer completes (synchronous CMMD semantics). Sending to self
// panics: CMMD programs keep local data local.
func (n *Node) Send(dst, tag int, data []byte) {
	n.send(dst, tag, data, len(data))
}

// SendN is Send for a synthetic message of nbytes with no payload. The
// timing is identical to Send with a real buffer of that size.
func (n *Node) SendN(dst, tag, nbytes int) {
	if nbytes < 0 {
		nbytes = 0
	}
	n.send(dst, tag, nil, nbytes)
}

func (n *Node) send(dst, tag int, data []byte, size int) {
	if dst == n.id {
		panic(fmt.Sprintf("cmmd: node %d sending to itself", n.id))
	}
	if dst < 0 || dst >= n.N() {
		panic(fmt.Sprintf("cmmd: node %d sending to invalid node %d", n.id, dst))
	}
	n.sends++
	n.sentUser += int64(size)
	n.Compute(n.m.cfg.SendOverhead) // CMMD_send software setup

	req := &sendReq{src: n.id, dst: dst, tag: tag, data: data, size: size, proc: n.proc}
	req.posted = n.Now()
	peer := n.m.nodes[dst]

	if n.m.async {
		// Asynchronous (buffered) mode: the ablation of the paper's
		// Section 3.1 remark that non-blocking communication would fix
		// LEX. The transfer starts immediately; the sender proceeds
		// without waiting for the receiver.
		req.async = true
		if data != nil {
			// Buffered semantics: snapshot the payload at send time.
			req.data = append([]byte(nil), data...)
		}
		if r := peer.postedRecv; r != nil && matches(r, req) {
			// The receiver is already parked on this message.
			peer.postedRecv = nil
			req.waiter = r
		} else {
			peer.pendingSends = append(peer.pendingSends, req)
		}
		m := n.m
		started := m.eng.Now()
		m.eng.After(m.cfg.WireLatency, func() {
			m.net.Start(req.src, req.dst, req.size, func() {
				req.arrived = true
				m.recordEvent(MsgEvent{
					Src: req.src, Dst: req.dst, Tag: req.tag, Bytes: req.size,
					Posted: req.posted, Started: started, Ended: m.eng.Now(),
				})
				if req.waiter != nil {
					m.deliver(req, req.waiter)
					m.eng.Ready(req.waiter.proc)
				}
			})
		})
		return
	}

	if r := peer.postedRecv; r != nil && matches(r, req) {
		peer.postedRecv = nil
		n.m.beginTransfer(req, r)
	} else {
		peer.pendingSends = append(peer.pendingSends, req)
	}
	n.proc.Park() // woken when the transfer completes
}

// Recv blocks until a message matching (src, tag) arrives; src and tag
// may be AnySrc / AnyTag. It returns the message after the receive-side
// copy-out overhead.
func (n *Node) Recv(src, tag int) Message {
	if src != AnySrc && (src < 0 || src >= n.N()) {
		panic(fmt.Sprintf("cmmd: node %d receiving from invalid node %d", n.id, src))
	}
	if src == n.id {
		panic(fmt.Sprintf("cmmd: node %d receiving from itself", n.id))
	}
	n.recvs++
	r := &recvReq{src: src, tag: tag, proc: n.proc}
	// Match the earliest pending sender.
	for i, s := range n.pendingSends {
		if matches(r, s) {
			n.pendingSends = append(n.pendingSends[:i], n.pendingSends[i+1:]...)
			if s.async {
				if s.arrived {
					n.m.deliver(s, r) // already buffered locally
				} else {
					s.waiter = r // wait for the in-flight transfer
					n.proc.Park()
				}
			} else {
				n.m.beginTransfer(s, r)
				n.proc.Park()
			}
			n.Compute(n.m.cfg.RecvOverhead) // copy-out
			return r.result
		}
	}
	if n.postedRecv != nil {
		panic(fmt.Sprintf("cmmd: node %d posted two receives", n.id))
	}
	n.postedRecv = r
	n.proc.Park()
	n.Compute(n.m.cfg.RecvOverhead)
	return r.result
}

func matches(r *recvReq, s *sendReq) bool {
	if r.src != AnySrc && r.src != s.src {
		return false
	}
	if r.tag != AnyTag && r.tag != s.tag {
		return false
	}
	return true
}

// Stats returns this node's message counters: sends, receives, user bytes
// sent.
func (n *Node) Stats() (sends, recvs int, userBytes int64) {
	return n.sends, n.recvs, n.sentUser
}

// Machine is a simulated CM-5 partition. Its data network runs over a
// pluggable topology (the calibrated CM-5 fat tree by default; see
// NewMachineOn), while the control network always models the CM-5's
// hardware broadcast/combine tree.
type Machine struct {
	eng   *sim.Engine
	data  topo.Topology // data-network link graph
	net   *network.DataNet
	ctrl  *network.ControlNet
	cfg   network.Config
	nodes []*Node

	coll  collective
	ran   bool
	async bool
	trace *Trace
	sink  func(MsgEvent)
	met   *obs.SimMetrics
	tl    *obs.Timeline

	faultEvents int // fault plan events scheduled (see ApplyFaults)
	stragglers  int // straggler events applied so far
}

// SetAsyncSends switches the machine to buffered (non-blocking) send
// semantics: a Send returns after its software overhead and the transfer
// proceeds in the background. This is NOT how the paper's CM-5 behaved —
// CMMD 1.x was synchronous-only — but it implements the paper's
// Section 3.1 remark that "if asynchronous communication is allowed,
// processors need not wait for their messages to be received", enabling
// the what-if ablation in internal/exp. Must be called before Run.
func (m *Machine) SetAsyncSends(on bool) { m.async = on }

// NewMachine builds an n-node partition with the given configuration,
// its data network on the calibrated CM-5 fat tree. n must be a power
// of two in [2, 16384].
func NewMachine(n int, cfg network.Config) (*Machine, error) {
	data, err := cfg.FatTree(n)
	if err != nil {
		return nil, err
	}
	return NewMachineOn(data, cfg) // NewMachineOn runs cfg.Validate
}

// NewMachineOn builds a partition whose data network runs over the
// given topology's link graph; the node count is the topology's. The
// control network (barriers, system broadcast, combine) keeps the CM-5
// tree model regardless of the data topology, so node programs work
// unchanged. The node count must be a power of two in [2, 16384].
func NewMachineOn(data topo.Topology, cfg network.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if data == nil {
		return nil, fmt.Errorf("cmmd: nil topology")
	}
	levels, err := topo.FatTreeLevels(data.N())
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	m := &Machine{
		eng:  eng,
		data: data,
		net:  network.NewDataNet(eng, data, cfg),
		ctrl: network.NewControlNet(levels, cfg),
		cfg:  cfg,
	}
	m.nodes = make([]*Node, data.N())
	for i := range m.nodes {
		m.nodes[i] = &Node{id: i, m: m}
	}
	return m, nil
}

// MustNewMachine is NewMachine but panics on error.
func MustNewMachine(n int, cfg network.Config) *Machine {
	m, err := NewMachine(n, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// N returns the partition size.
func (m *Machine) N() int { return len(m.nodes) }

// Config returns the timing constants in use.
func (m *Machine) Config() network.Config { return m.cfg }

// Net returns the data network (for statistics).
func (m *Machine) Net() *network.DataNet { return m.net }

// ApplyFaults validates the plan against the data topology and
// schedules its events into the run: link failures and degradations on
// the data network, straggler slowdowns on the nodes, background
// cross-traffic bursts. Events at time 0 are applied immediately — the
// machine starts the run already failed/degraded/slowed, as the profile
// docs promise — because the engine runs every node's first actions
// before firing time-0 events, which would let the run's opening costs
// slip in under the fault. The nil plan and the zero-event healthy plan
// change nothing, bit for bit. Must be called before Run.
func (m *Machine) ApplyFaults(p *network.FaultPlan) error {
	if p == nil || len(p.Events) == 0 {
		if p != nil {
			return p.Validate(m.data)
		}
		return nil
	}
	if m.ran {
		return fmt.Errorf("cmmd: machine already ran")
	}
	if err := p.Validate(m.data); err != nil {
		return err
	}
	m.faultEvents += len(p.Events)
	for _, ev := range p.Events {
		ev := ev
		var apply func()
		switch ev.Kind {
		case network.FaultLinkDown:
			apply = func() { m.net.FailLink(ev.Link) }
		case network.FaultDegrade:
			apply = func() { m.net.DegradeLink(ev.Link, ev.Factor) }
		case network.FaultStraggler:
			apply = func() {
				m.nodes[ev.Node].slow = ev.Factor
				m.stragglers++
			}
		case network.FaultBackground:
			apply = func() { m.net.InjectBackground(ev.Flows, ev.Bytes, ev.Seed) }
		}
		if m.tl != nil {
			inner := apply
			apply = func() { m.faultInstant(ev); inner() }
		}
		if ev.At == 0 {
			apply()
		} else {
			m.eng.Schedule(ev.At, apply)
		}
	}
	return nil
}

// FaultStats returns what the applied fault plan did to the run: the
// data network's counters plus the machine-level event and straggler
// counts. The zero value is a fault-free run.
func (m *Machine) FaultStats() network.FaultStats {
	st := m.net.FaultStats()
	st.Events = m.faultEvents
	st.Stragglers = m.stragglers
	return st
}

// Run executes program on every node concurrently and returns the
// simulated completion time of the slowest node. The engine may keep
// running past that point — draining background fault traffic, firing
// post-drain fault events — without affecting the returned makespan.
// A Machine is one-shot: Run may only be called once.
func (m *Machine) Run(program func(*Node)) (sim.Time, error) {
	if m.ran {
		return 0, fmt.Errorf("cmmd: machine already ran")
	}
	m.ran = true
	for _, node := range m.nodes {
		node := node
		node.proc = m.eng.Spawn(fmt.Sprintf("node%d", node.id), func(p *sim.Proc) {
			program(node)
			node.finished = p.Now()
		})
	}
	end, err := m.eng.Run()
	if m.met != nil {
		st := m.eng.Stats()
		m.met.EventsFired.Add(st.EventsFired)
		m.met.EventsPooled.Add(st.EventsPooled)
		m.met.EventsAllocated.Add(st.EventsAllocated)
		m.met.HeapHighWater.SetMax(float64(st.HeapHighWater))
	}
	if err != nil {
		return end, err
	}
	var finish sim.Time
	for _, node := range m.nodes {
		if node.finished > finish {
			finish = node.finished
		}
	}
	return finish, nil
}

// UserBytesSent returns the total user bytes sent across all nodes.
// Valid after Run.
func (m *Machine) UserBytesSent() int64 {
	var total int64
	for _, n := range m.nodes {
		total += n.sentUser
	}
	return total
}

// NodeFinishTimes returns each node's program completion time. Valid
// after Run.
func (m *Machine) NodeFinishTimes() []sim.Time {
	out := make([]sim.Time, len(m.nodes))
	for i, n := range m.nodes {
		out[i] = n.finished
	}
	return out
}

// deliver fills a receive request from a send request (no timing).
func (m *Machine) deliver(s *sendReq, r *recvReq) {
	r.result = Message{Src: s.src, Tag: s.tag, Size: s.size}
	if s.data != nil {
		r.result.Data = append([]byte(nil), s.data...)
	}
	r.got = true
}

// beginTransfer starts the network transfer for a matched rendezvous and
// arranges for both parties to wake when it completes.
func (m *Machine) beginTransfer(s *sendReq, r *recvReq) {
	// Copy at match time so sender buffer reuse cannot corrupt the
	// receiver.
	m.deliver(s, r)
	dst := s.dst
	started := m.eng.Now()
	m.eng.After(m.cfg.WireLatency, func() {
		m.net.Start(s.src, dst, s.size, func() {
			m.recordEvent(MsgEvent{
				Src: s.src, Dst: dst, Tag: s.tag, Bytes: s.size,
				Posted: s.posted, Started: started, Ended: m.eng.Now(),
			})
			m.eng.Ready(s.proc)
			m.eng.Ready(r.proc)
		})
	})
}
