package nn

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// packedFromFloat RTN-quantizes w and returns both the packed layer and a
// float Linear holding the dequantized weights — the two execution paths
// the property tests compare.
func packedFromFloat(t *testing.T, w *tensor.Mat, bits, groupSize int, rowBits []int, bias *Param) (*QuantizedLinear, *Linear) {
	t.Helper()
	q := quant.RTN(w, bits, groupSize, false)
	if rowBits != nil {
		// Re-encode each row at its own width (mixed precision within the
		// matrix, as APTQ's per-row allocation produces for W_V bands).
		q.RowBits = rowBits
		ng := q.NumGroups()
		for r := 0; r < w.Rows; r++ {
			row := w.Row(r)
			for g := 0; g < ng; g++ {
				lo := g * q.GroupSize
				hi := lo + q.GroupSize
				if hi > w.Cols {
					hi = w.Cols
				}
				p := quant.FitGroup(row[lo:hi], rowBits[r], false)
				q.Params[r*ng+g] = p
				for c := lo; c < hi; c++ {
					q.Codes[r*w.Cols+c] = uint16(p.Encode(row[c], rowBits[r]))
				}
			}
		}
	}
	pm, err := quant.PackMatrix(q)
	if err != nil {
		t.Fatal(err)
	}
	ql := NewQuantizedLinear("test", pm, bias)
	fl := &Linear{P: NewParam("test", q.Dequantize()), Bias: bias}
	return ql, fl
}

// TestQuantizedLinearBitIdentical is the acceptance property of the packed
// execution path: QuantizedLinear.Forward must be exactly equal (not
// approximately) to Dequantize() + Linear.Forward on every tested shape,
// bit width, group size and mixed-precision pattern, at every worker
// count and under both leaves of the packed product.
func TestQuantizedLinearBitIdentical(t *testing.T) {
	forEachLeaf(t, testQuantizedLinearBitIdentical)
}

func testQuantizedLinearBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct{ out, in, group int }{
		{1, 1, 1}, {2, 3, 2}, {5, 7, 3}, {13, 11, 4}, {31, 17, 16}, {48, 48, 16}, {7, 23, 64},
	}
	for _, sh := range shapes {
		for bits := 1; bits <= 8; bits++ {
			for _, mixed := range []bool{false, true} {
				var rowBits []int
				if mixed {
					rowBits = make([]int, sh.out)
					for r := range rowBits {
						rowBits[r] = 1 + rng.Intn(8)
					}
				}
				w := tensor.Randn(rng, sh.out, sh.in, 1)
				ql, fl := packedFromFloat(t, w, bits, sh.group, rowBits, nil)
				x := tensor.Randn(rng, 1+rng.Intn(4), sh.in, 1)
				want := fl.Forward(x)
				for _, workers := range []int{1, 3, 8} {
					parallel.SetWorkers(workers)
					got := ql.Forward(x)
					parallel.SetWorkers(0)
					if !got.Equal(want, 0) {
						t.Fatalf("shape %+v bits=%d mixed=%v workers=%d: packed forward differs from dequantized float forward",
							sh, bits, mixed, workers)
					}
				}
			}
		}
	}
}

func TestQuantizedLinearBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := tensor.Randn(rng, 9, 5, 1)
	bias := NewParam("test.bias", tensor.Randn(rng, 1, 9, 1))
	ql, fl := packedFromFloat(t, w, 4, 4, nil, bias)
	x := tensor.Randn(rng, 3, 5, 1)
	if !ql.Forward(x).Equal(fl.Forward(x), 0) {
		t.Fatal("biased packed forward differs from float path")
	}
	if ql.In() != 5 || ql.Out() != 9 {
		t.Fatalf("In/Out = %d/%d", ql.In(), ql.Out())
	}
}

func TestQuantizedLinearBackwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ql, _ := packedFromFloat(t, tensor.Randn(rng, 4, 4, 1), 4, 4, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward through a packed projection must panic")
		}
	}()
	ql.Backward(tensor.New(1, 4))
}

func TestLinearViewSharesWeightsNotCache(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear(rng, "l", 6, 4, true)
	v := AsLinear(l.View())
	if v.P != l.P || v.Bias != l.Bias {
		t.Fatal("view must share parameters")
	}
	x := tensor.Randn(rng, 2, 6, 1)
	l.Forward(x)
	if v.LastInput() != nil {
		t.Fatal("view must own its forward cache")
	}
	if !v.Forward(x).Equal(l.Forward(x), 0) {
		t.Fatal("view forward differs")
	}
}
