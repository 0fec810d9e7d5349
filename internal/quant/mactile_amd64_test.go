package quant

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestMacTileAVX2MatchesGo is the leaf contract as a measurement: the
// assembly body and the Go body store the same IEEE-754 bits for every
// output, and neither stores outside its window, over cols 1..130 and x
// rows 1..17 (so the four-row blocks and every remainder), full and partial
// tiles, on three kinds of values: ordinary ones; ones sprinkled with ±0
// and denormals; and magnitudes whose products and running sums overflow
// to ±Inf. An Inf-Inf along the way makes a NaN in both bodies; which NaN
// (sign, payload) is not part of the contract — x86 picks it by operand
// order — so a NaN is only required to be a NaN. NaN inputs are left out
// for the same reason.
func TestMacTileAVX2MatchesGo(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("this CPU/OS does not offer AVX2: the package runs macTileGo here and there is no second body to compare")
	}
	rng := rand.New(rand.NewSource(16))
	small := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 3e-310, -2.2250738585072014e-308, 1e-160}
	huge := []float64{math.MaxFloat64, -math.MaxFloat64, 1e200, -1e160, 1.5e154, 1, -1e-200}
	kinds := []struct {
		name string
		fill func() float64
	}{
		{"normal", rng.NormFloat64},
		{"zeros and denormals", func() float64 {
			if rng.Intn(3) == 0 {
				return small[rng.Intn(len(small))]
			}
			return rng.NormFloat64()
		}},
		{"overflowing", func() float64 { return huge[rng.Intn(len(huge))] * (0.5 + rng.Float64()) }},
	}
	const sentinel = 12345.678
	for _, kd := range kinds {
		kind, fill := kd.name, kd.fill
		infs := 0
		for cols := 1; cols <= 130; cols++ {
			for rows := 1; rows <= 17; rows++ {
				width := decodeBlockRows
				if (cols+rows)%3 == 0 {
					width = 1 + rng.Intn(decodeBlockRows)
				}
				j0 := rng.Intn(3)
				x := tensor.New(rows, cols)
				for i := range x.Data {
					x.Data[i] = fill()
				}
				tile := make([]float64, cols*decodeBlockRows)
				for k := 0; k < cols; k++ {
					for jj := 0; jj < width; jj++ { // lanes past width stay zero, as decodeTile leaves them
						tile[k*decodeBlockRows+jj] = fill()
					}
				}
				want, got := tensor.New(rows, j0+width+2), tensor.New(rows, j0+width+2)
				for i := range want.Data {
					want.Data[i], got.Data[i] = sentinel, sentinel
				}
				macTileGo(want, x, j0, width, tile)
				macTileAVX2(got, x, j0, width, tile)
				for i := 0; i < rows; i++ {
					for j := 0; j < want.Cols; j++ {
						w, g := want.At(i, j), got.At(i, j)
						if (j < j0 || j >= j0+width) && (w != sentinel || g != sentinel) {
							t.Fatalf("%s cols=%d rows=%d window [%d,%d): out[%d][%d] overwritten (go %v, avx2 %v)", kind, cols, rows, j0, j0+width, i, j, w, g)
						}
						if math.IsInf(w, 0) {
							infs++
						}
						if math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
							t.Fatalf("%s cols=%d rows=%d window [%d,%d): out[%d][%d] go %v (%#x), avx2 %v (%#x)", kind, cols, rows, j0, j0+width, i, j, w, math.Float64bits(w), g, math.Float64bits(g))
						}
					}
				}
			}
		}
		if kind == "overflowing" && infs == 0 {
			t.Fatal("the overflowing values produced no ±Inf output: the case does not test what it says")
		}
	}
}
