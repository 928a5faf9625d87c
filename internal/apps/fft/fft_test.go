package fft

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/sched"
)

func randSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	max := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randSignal(n, int64(n))
		want := DFTNaive(x)
		FFT(x)
		if d := maxAbsDiff(x, want); d > 1e-9*float64(n) {
			t.Fatalf("n=%d: FFT differs from DFT by %g", n, d)
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT of length 3 should panic")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestIFFTInvertsFFT(t *testing.T) {
	x := randSignal(128, 5)
	orig := append([]complex128(nil), x...)
	FFT(x)
	IFFT(x)
	if d := maxAbsDiff(x, orig); d > 1e-10 {
		t.Fatalf("round trip error %g", d)
	}
}

func TestFFTParseval(t *testing.T) {
	x := randSignal(256, 9)
	var timeEnergy float64
	for _, v := range x {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	FFT(x)
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqEnergy/float64(len(x))-timeEnergy) > 1e-8*timeEnergy {
		t.Fatalf("Parseval violated: %g vs %g", freqEnergy/256, timeEnergy)
	}
}

func TestFFTImpulseIsFlat(t *testing.T) {
	x := make([]complex128, 64)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFT2DAgainstSeparableDFT(t *testing.T) {
	const n = 8
	a := make([][]complex128, n)
	for r := range a {
		a[r] = randSignal(n, int64(r+100))
	}
	// Reference: row DFTs then column DFTs.
	ref := make([][]complex128, n)
	for r := range a {
		ref[r] = DFTNaive(a[r])
	}
	for c := 0; c < n; c++ {
		col := make([]complex128, n)
		for r := 0; r < n; r++ {
			col[r] = ref[r][c]
		}
		col = DFTNaive(col)
		for r := 0; r < n; r++ {
			ref[r][c] = col[r]
		}
	}
	FFT2D(a)
	for r := 0; r < n; r++ {
		if d := maxAbsDiff(a[r], ref[r]); d > 1e-9 {
			t.Fatalf("row %d differs by %g", r, d)
		}
	}
}

func TestFFTFlops(t *testing.T) {
	if FFTFlops(1) != 0 {
		t.Error("FFTFlops(1)")
	}
	if FFTFlops(8) != 5*8*3 {
		t.Errorf("FFTFlops(8) = %g", FFTFlops(8))
	}
}

func TestEncodeDecodeComplex64RoundTrip(t *testing.T) {
	vals := randSignal(33, 3)
	got := decodeComplex64(encodeComplex64(vals))
	for i := range vals {
		if cmplx.Abs(got[i]-vals[i]) > 1e-5 {
			t.Fatalf("round trip lost precision at %d: %v vs %v", i, got[i], vals[i])
		}
	}
}

// encodeComplex64 and decodeComplex64 pack whole vectors with the
// element codec the transpose uses.
func encodeComplex64(vals []complex128) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		putComplex64(buf[8*i:], v)
	}
	return buf
}

func decodeComplex64(buf []byte) []complex128 {
	out := make([]complex128, len(buf)/8)
	for i := range out {
		out[i] = getComplex64(buf[8*i:])
	}
	return out
}

func distInput(rows, cols int, seed int64) [][]complex128 {
	a := make([][]complex128, rows)
	for r := range a {
		a[r] = randSignal(cols, seed+int64(r))
	}
	return a
}

func checkDistributedResult(t *testing.T, input [][]complex128, res *Result) {
	t.Helper()
	rows, cols := len(input), len(input[0])
	ref := make([][]complex128, rows)
	for r := range input {
		ref[r] = append([]complex128(nil), input[r]...)
	}
	FFT2D(ref)
	// res.Out is transposed: Out[c][r] == ref[r][c]. The wire format is
	// float32, so compare with a tolerance scaled to the data magnitude.
	maxMag := 0.0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if m := cmplx.Abs(ref[r][c]); m > maxMag {
				maxMag = m
			}
		}
	}
	tol := 1e-5 * maxMag * math.Sqrt(float64(rows*cols))
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			if d := cmplx.Abs(res.Out[c][r] - ref[r][c]); d > tol {
				t.Fatalf("[%d][%d]: distributed %v vs sequential %v (diff %g, tol %g)",
					r, c, res.Out[c][r], ref[r][c], d, tol)
			}
		}
	}
}

func TestDistributedFFTAllAlgorithmsCorrect(t *testing.T) {
	input := distInput(32, 32, 77)
	for _, alg := range []string{"LEX", "PEX", "REX", "BEX"} {
		res, err := Run2D(8, input, Options{Alg: alg}, network.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%s: no simulated time", alg)
		}
		checkDistributedResult(t, input, res)
	}
}

func TestDistributedFFTRectangular(t *testing.T) {
	input := distInput(16, 64, 31)
	res, err := Run2D(4, input, Options{Alg: "PEX"}, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkDistributedResult(t, input, res)
	if res.BytesPerPair != (16/4)*(64/4)*8 {
		t.Fatalf("BytesPerPair = %d", res.BytesPerPair)
	}
}

func TestDistributedFFTValidation(t *testing.T) {
	input := distInput(16, 16, 1)
	for _, c := range []struct {
		name    string
		input   [][]complex128
		alg     string
		unknown bool // the error wraps sched.ErrUnknownAlgorithm
	}{
		{"non-divisible rows", distInput(12, 16, 1), "PEX", false},
		{"empty input", nil, "PEX", false},
		{"unknown algorithm", input, "ZZZ", true},
		{"shift is no transpose", input, "SHIFT", false},
		{"irregular scheduler", input, "GS", false},
		{"broadcast", input, "LIB", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run2D(8, c.input, Options{Alg: c.alg}, network.DefaultConfig())
			if err == nil {
				t.Fatalf("%s: Run2D accepted it", c.alg)
			}
			if got := errors.Is(err, sched.ErrUnknownAlgorithm); got != c.unknown {
				t.Fatalf("%s: errors.Is(%v, ErrUnknownAlgorithm) = %v, want %v", c.alg, err, got, c.unknown)
			}
		})
	}
}

func TestDistributedFFTTimingOrdering(t *testing.T) {
	// LEX should be the slowest transpose on 8 nodes at this size
	// (synchronous funnel), mirroring Table 5's 32-processor column.
	input := distInput(64, 64, 13)
	times := map[string]float64{}
	for _, alg := range []string{"LEX", "PEX", "BEX"} {
		res, err := Run2D(8, input, Options{Alg: alg}, network.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		times[alg] = res.Elapsed.Seconds()
	}
	if times["LEX"] <= times["PEX"] || times["LEX"] <= times["BEX"] {
		t.Fatalf("LEX (%g) should be slowest: PEX %g BEX %g", times["LEX"], times["PEX"], times["BEX"])
	}
}

// Property: FFT is linear: FFT(a*x + y) == a*FFT(x) + FFT(y).
func TestQuickFFTLinearity(t *testing.T) {
	f := func(seed int64, aRaw uint8) bool {
		a := complex(float64(aRaw%7)-3, float64(aRaw%5)-2)
		x := randSignal(64, seed)
		y := randSignal(64, seed+1)
		combo := make([]complex128, 64)
		for i := range combo {
			combo[i] = a*x[i] + y[i]
		}
		FFT(combo)
		FFT(x)
		FFT(y)
		for i := range combo {
			if cmplx.Abs(combo[i]-(a*x[i]+y[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: time shift corresponds to a frequency-domain phase ramp.
func TestQuickFFTShiftTheorem(t *testing.T) {
	f := func(seed int64, shiftRaw uint8) bool {
		n := 32
		s := int(shiftRaw) % n
		x := randSignal(n, seed)
		shifted := make([]complex128, n)
		for i := range shifted {
			shifted[i] = x[(i+s)%n]
		}
		FFT(x)
		FFT(shifted)
		for k := 0; k < n; k++ {
			phase := cmplx.Exp(complex(0, 2*math.Pi*float64(k)*float64(s)/float64(n)))
			if cmplx.Abs(shifted[k]-x[k]*phase) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
