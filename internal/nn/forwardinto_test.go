package nn

import (
	"math/rand"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// assertMatsIdentical fails unless a and b are bit-identical.
func assertMatsIdentical(t *testing.T, label string, got, want *tensor.Mat) {
	t.Helper()
	if !got.Equal(want, 0) {
		t.Fatalf("%s: ForwardInto not bit-identical to Forward", label)
	}
}

// TestProjectionForwardIntoMatchesForward pins every Projection
// implementation's ForwardInto to Forward bit for bit: plain and biased
// Linear, Linear with deployment-time input transforms, and the packed
// QuantizedLinear on single- and multi-row inputs.
func TestProjectionForwardIntoMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const in, out = 12, 9
	x1 := tensor.Randn(rng, 1, in, 1)
	x5 := tensor.Randn(rng, 5, in, 1)

	plain := NewLinear(rng, "plain", in, out, false)
	biased := NewLinear(rng, "biased", in, out, true)
	for i := range biased.Bias.W.Data {
		biased.Bias.W.Data[i] = rng.NormFloat64()
	}
	scaled := NewLinear(rng, "scaled", in, out, false)
	scaled.InScale = make([]float64, in)
	for i := range scaled.InScale {
		scaled.InScale[i] = 0.5 + rng.Float64()
	}
	scaled.ActQuant = &quant.ActQuantizer{Bits: 8, PerToken: true}
	pm, err := quant.PackMatrix(quant.RTN(plain.P.W, 4, 5, false))
	if err != nil {
		t.Fatal(err)
	}
	packed := NewQuantizedLinear("packed", pm, biased.Bias)

	for _, tc := range []struct {
		name string
		p    Projection
	}{
		{"linear", plain}, {"linear+bias", biased}, {"linear+transforms", scaled}, {"quantized+bias", packed},
	} {
		for _, x := range []*tensor.Mat{x1, x5} {
			want := tc.p.Forward(x)
			got := tensor.New(x.Rows, out)
			tc.p.ForwardInto(got, x)
			assertMatsIdentical(t, tc.name, got, want)
		}
	}
}

// TestNormForwardIntoMatchesForward pins RMSNorm and LayerNorm.
func TestNormForwardIntoMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const dim = 14
	x := tensor.Randn(rng, 6, dim, 1)
	for _, tc := range []struct {
		name string
		n    Norm
	}{
		{"rmsnorm", NewRMSNorm("r", dim)}, {"layernorm", NewLayerNorm("l", dim)},
	} {
		for _, p := range tc.n.Params() {
			for i := range p.W.Data {
				p.W.Data[i] = rng.NormFloat64()
			}
		}
		want := tc.n.Forward(x)
		got := tensor.New(x.Rows, dim)
		tc.n.ForwardInto(got, x)
		assertMatsIdentical(t, tc.name, got, want)
	}
}

// TestFeedForwardForwardIntoMatchesForward pins the SwiGLU and GELU MLPs.
func TestFeedForwardForwardIntoMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const dim, ff = 10, 17
	x := tensor.Randn(rng, 4, dim, 1)
	for _, tc := range []struct {
		name string
		m    FeedForward
	}{
		{"swiglu", NewMLP(rng, "m", dim, ff)}, {"gelu", NewGELUMLP(rng, "g", dim, ff)},
	} {
		want := tc.m.Forward(x)
		got := tensor.New(x.Rows, dim)
		h1 := tensor.New(x.Rows, ff)
		h2 := tensor.New(x.Rows, ff)
		tc.m.ForwardInto(got, x, h1, h2)
		assertMatsIdentical(t, tc.name, got, want)
	}
}

// TestRoPEApplyRowsMatchesApplyAt: rotating rows at arbitrary positions —
// consecutive (a prompt chunk) or scattered (a decode batch) — must equal
// rotating each row at its own absolute position, and positions 0..n-1
// must equal the batch Apply.
func TestRoPEApplyRowsMatchesApplyAt(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const headDim, dim = 8, 16
	r := NewRoPE(headDim, 4, 10000) // short table forces growth past maxSeq
	for _, pos := range [][]int{{0, 1, 2, 3, 4}, {7, 8, 9, 10, 11}, {33, 0, 12, 12, 5}} {
		rows := tensor.Randn(rng, len(pos), dim, 1)
		want := rows.Clone()
		for t0, p := range pos {
			r.ApplyAt(want.SliceRows(t0, t0+1), p)
		}
		r.ApplyRows(rows, pos)
		assertMatsIdentical(t, "applyrows", rows, want)
	}
	batch := tensor.Randn(rng, 6, dim, 1)
	want := batch.Clone()
	r.Apply(want)
	r.ApplyRows(batch, []int{0, 1, 2, 3, 4, 5})
	assertMatsIdentical(t, "applyrows@0.. vs apply", batch, want)
}
