// Package fft implements the paper's 2-D FFT application study
// (Section 3.5, Table 5): a row-distributed two-dimensional FFT whose
// transpose step is a complete exchange executed by any of the paper's
// four scheduling algorithms.
//
// The package contains a from-scratch radix-2 complex FFT, a naive DFT
// used as a test oracle, and the distributed driver. Array elements
// travel as single-precision complex numbers (8 bytes), matching the
// per-pair message sizes implied by the paper's table.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT performs an in-place radix-2 decimation-in-time FFT.
// len(x) must be a power of two.
func FFT(x []complex128) {
	transform(x, false)
}

// IFFT performs the in-place inverse FFT (including the 1/N scaling).
func IFFT(x []complex128) {
	transform(x, true)
	scale := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= scale
	}
}

func transform(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	// Bit reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		theta := sign * 2 * math.Pi / float64(size)
		wStep := complex(math.Cos(theta), math.Sin(theta))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// DFTNaive computes the discrete Fourier transform directly in O(n^2);
// the test oracle for FFT.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * complex(math.Cos(angle), math.Sin(angle))
		}
		out[k] = sum
	}
	return out
}

// FFT2D performs an in-place 2-D FFT on a rows x cols array (row FFTs
// then column FFTs). Both dimensions must be powers of two.
func FFT2D(a [][]complex128) {
	rows := len(a)
	if rows == 0 {
		return
	}
	cols := len(a[0])
	for _, row := range a {
		FFT(row)
	}
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = a[r][c]
		}
		FFT(col)
		for r := 0; r < rows; r++ {
			a[r][c] = col[r]
		}
	}
}

// FFTFlops estimates the floating-point operations of a length-n radix-2
// FFT: the standard 5 n lg n count.
func FFTFlops(n int) float64 {
	if n < 2 {
		return 0
	}
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return 5 * float64(n) * float64(lg)
}

// putComplex64 serializes v as a single-precision complex pair into
// b[:8] — 8 bytes per element, the element size of the paper's arrays.
func putComplex64(b []byte, v complex128) {
	putFloat32(b, float32(real(v)))
	putFloat32(b[4:], float32(imag(v)))
}

// getComplex64 reads the pair putComplex64 wrote.
func getComplex64(b []byte) complex128 {
	return complex(float64(getFloat32(b)), float64(getFloat32(b[4:])))
}

func putFloat32(b []byte, f float32) {
	u := math.Float32bits(f)
	b[0] = byte(u)
	b[1] = byte(u >> 8)
	b[2] = byte(u >> 16)
	b[3] = byte(u >> 24)
}

func getFloat32(b []byte) float32 {
	u := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return math.Float32frombits(u)
}
