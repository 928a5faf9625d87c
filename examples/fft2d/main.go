// fft2d runs the paper's 2-D FFT application study (Table 5) at reduced
// scale: a 256x256 array on 16 simulated nodes, transposed with each of
// the four complete-exchange algorithms, with the result verified
// against a sequential FFT.
package main

import (
	"fmt"
	"log"
	"math/cmplx"
	"math/rand"

	"repro/internal/apps/fft"
	"repro/internal/network"
)

func main() {
	const size, procs = 256, 16
	rng := rand.New(rand.NewSource(42))
	input := make([][]complex128, size)
	for r := range input {
		input[r] = make([]complex128, size)
		for c := range input[r] {
			input[r][c] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
	}
	// Sequential reference.
	ref := make([][]complex128, size)
	for r := range input {
		ref[r] = append([]complex128(nil), input[r]...)
	}
	fft.FFT2D(ref)

	cfg := network.DefaultConfig()
	fmt.Printf("2-D FFT, %dx%d array on %d simulated CM-5 nodes\n\n", size, size, procs)
	fmt.Printf("%6s  %12s  %14s  %10s\n", "alg", "sim time (s)", "bytes per pair", "max error")
	for _, alg := range []string{"LEX", "PEX", "REX", "BEX"} {
		res, err := fft.Run2D(procs, input, fft.Options{Alg: alg}, cfg)
		if err != nil {
			log.Fatal(err)
		}
		worst := 0.0
		for c := 0; c < size; c++ {
			for r := 0; r < size; r++ {
				if d := cmplx.Abs(res.Out[c][r] - ref[r][c]); d > worst {
					worst = d
				}
			}
		}
		fmt.Printf("%6s  %12.4f  %14d  %10.2e\n", alg, res.Elapsed.Seconds(), res.BytesPerPair, worst)
	}
	fmt.Println("\nThe transform travels as single-precision complex numbers, so errors")
	fmt.Println("around 1e-3 of the peak magnitude are the expected wire precision.")
}
