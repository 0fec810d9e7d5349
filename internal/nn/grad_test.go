package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// gradCheck verifies an analytic gradient against central finite differences.
// loss() must recompute the scalar loss from current parameter/input values.
func gradCheck(t *testing.T, name string, data []float64, grad []float64, loss func() float64, tol float64) {
	t.Helper()
	const eps = 1e-5
	for i := range data {
		orig := data[i]
		data[i] = orig + eps
		lp := loss()
		data[i] = orig - eps
		lm := loss()
		data[i] = orig
		num := (lp - lm) / (2 * eps)
		if diff := math.Abs(num - grad[i]); diff > tol*(1+math.Abs(num)) {
			t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, i, grad[i], num)
		}
	}
}

// probeLoss builds a scalar loss L = Σ c_ij·Y_ij from a fixed random probe c,
// whose gradient w.r.t. Y is exactly c.
func probeLoss(rng *rand.Rand, rows, cols int) (c *tensor.Mat, loss func(y *tensor.Mat) float64) {
	c = tensor.Randn(rng, rows, cols, 1)
	return c, func(y *tensor.Mat) float64 {
		s := 0.0
		for i := range y.Data {
			s += c.Data[i] * y.Data[i]
		}
		return s
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, "l", 4, 3, true)
	x := tensor.Randn(rng, 5, 4, 1)
	c, lossOf := probeLoss(rng, 5, 3)

	loss := func() float64 { return lossOf(l.Forward(x)) }
	l.Forward(x)
	dx := l.Backward(c)

	gradCheck(t, "linear.x", x.Data, dx.Data, loss, 1e-6)
	gradCheck(t, "linear.W", l.P.W.Data, l.P.Grad.Data, loss, 1e-6)
	gradCheck(t, "linear.b", l.Bias.W.Data, l.Bias.Grad.Data, loss, 1e-6)
}

func TestLinearBackwardAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, "l", 3, 2, false)
	x := tensor.Randn(rng, 4, 3, 1)
	dy := tensor.Randn(rng, 4, 2, 1)
	l.Forward(x)
	l.Backward(dy)
	g1 := l.P.Grad.Clone()
	l.Forward(x)
	l.Backward(dy)
	g1.Scale(2)
	if !l.P.Grad.Equal(g1, 1e-12) {
		t.Fatal("gradients must accumulate across backward calls")
	}
}

func TestRMSNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRMSNorm("n", 6)
	// Non-trivial gain so the gain path is exercised.
	for i := range r.P.W.Data {
		r.P.W.Data[i] = 0.5 + rng.Float64()
	}
	x := tensor.Randn(rng, 4, 6, 1)
	c, lossOf := probeLoss(rng, 4, 6)

	loss := func() float64 { return lossOf(r.Forward(x)) }
	r.Forward(x)
	dx := r.Backward(c)

	gradCheck(t, "rmsnorm.x", x.Data, dx.Data, loss, 1e-5)
	gradCheck(t, "rmsnorm.g", r.P.W.Data, r.P.Grad.Data, loss, 1e-5)
}

func TestRMSNormUnitGainIdentityDirection(t *testing.T) {
	r := NewRMSNorm("n", 4)
	x := tensor.FromSlice(1, 4, []float64{2, 2, 2, 2})
	y := r.Forward(x)
	// rms = 2, so each output should be ~1.
	for _, v := range y.Data {
		if math.Abs(v-1) > 1e-5 {
			t.Fatalf("RMSNorm output %v, want ~1", v)
		}
	}
}

func TestMLPGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP(rng, "m", 4, 6)
	x := tensor.Randn(rng, 3, 4, 1)
	c, lossOf := probeLoss(rng, 3, 4)

	loss := func() float64 { return lossOf(m.Forward(x)) }
	m.Forward(x)
	dx := m.Backward(c)

	gradCheck(t, "mlp.x", x.Data, dx.Data, loss, 1e-5)
	for _, p := range m.Params() {
		gradCheck(t, "mlp."+p.Name, p.W.Data, p.Grad.Data, loss, 1e-5)
	}
}

func TestAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewAttention(rng, "a", 8, 2, 16, 10000)
	x := tensor.Randn(rng, 5, 8, 1)
	c, lossOf := probeLoss(rng, 5, 8)

	loss := func() float64 { return lossOf(a.Forward(x)) }
	a.Forward(x)
	dx := a.Backward(c)

	gradCheck(t, "attn.x", x.Data, dx.Data, loss, 1e-4)
	for _, p := range a.Params() {
		gradCheck(t, "attn."+p.Name, p.W.Data, p.Grad.Data, loss, 1e-4)
	}
}

func TestBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewBlock(rng, "b", 8, 2, 12, 16, 10000)
	x := tensor.Randn(rng, 4, 8, 1)
	c, lossOf := probeLoss(rng, 4, 8)

	loss := func() float64 { return lossOf(b.Forward(x)) }
	b.Forward(x)
	dx := b.Backward(c)

	gradCheck(t, "block.x", x.Data, dx.Data, loss, 1e-4)
	for _, p := range b.Params() {
		gradCheck(t, "block."+p.Name, p.W.Data, p.Grad.Data, loss, 1e-4)
	}
}

func TestEmbeddingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEmbedding(rng, "e", 10, 4)
	ids := []int{3, 7, 3}
	c, lossOf := probeLoss(rng, 3, 4)

	loss := func() float64 { return lossOf(e.Forward(ids)) }
	e.Forward(ids)
	e.Backward(c)

	gradCheck(t, "embed.W", e.P.W.Data, e.P.Grad.Data, loss, 1e-6)
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := tensor.Randn(rng, 4, 6, 1)
	targets := []int{1, 0, 5, 2}

	_, dLogits := CrossEntropy(logits, targets)
	loss := func() float64 {
		l, _ := CrossEntropy(logits, targets)
		return l
	}
	gradCheck(t, "xent.logits", logits.Data, dLogits.Data, loss, 1e-5)
}

func TestCrossEntropyMasking(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := tensor.Randn(rng, 3, 4, 1)
	full, _ := CrossEntropy(logits, []int{1, 2, 3})
	masked, dl := CrossEntropy(logits, []int{1, -1, 3})
	if masked == full {
		t.Fatal("masking should change the mean loss")
	}
	// Masked row must contribute zero gradient.
	for _, v := range dl.Row(1) {
		if v != 0 {
			t.Fatal("masked row gradient must be zero")
		}
	}
}

func TestCrossEntropyAllMasked(t *testing.T) {
	logits := tensor.New(2, 3)
	loss, dl := CrossEntropy(logits, []int{-1, -1})
	if loss != 0 || dl.MaxAbs() != 0 {
		t.Fatal("all-masked loss must be zero with zero gradient")
	}
}

func TestSequenceNLLMatchesCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	logits := tensor.Randn(rng, 5, 7, 1)
	targets := []int{0, 3, -1, 6, 2}
	ce, _ := CrossEntropy(logits, targets)
	nll, n := SequenceNLL(logits, targets)
	if n != 4 {
		t.Fatalf("token count = %d, want 4", n)
	}
	if math.Abs(nll/float64(n)-ce) > 1e-12 {
		t.Fatalf("NLL/n = %v, CE = %v", nll/float64(n), ce)
	}
}

// TestProbeQKMatchesBackward pins ProbeQK to the full backward pass it was
// cut from: on the rotary and on the biased GPT attention its G_Q and G_K
// carry exactly the bits Backward leaves in zeroed W_Q / W_K gradient
// accumulators, a second call through the same scratch repeats them, and
// no Param.Grad is written.
func TestProbeQKMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name string
		a    *Attention
	}{
		{"rotary", NewAttention(rng, "a", 8, 2, 16, 10000)},
		{"gpt", NewAttentionGPT(rng, "g", 8, 2)},
	} {
		name, a := tc.name, tc.a
		x := tensor.Randn(rng, 5, 8, 1)
		r := tensor.Randn(rng, 5, 8, 1)
		a.Forward(x)
		a.Backward(r)
		wantQ, wantK := AsLinear(a.WQ).P.Grad.Clone(), AsLinear(a.WK).P.Grad.Clone()

		for _, p := range a.Params() {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = float64(i) + 0.5
			}
		}
		var s QKProbe
		a.ProbeQK(tensor.Randn(rng, 5, 8, 1), &s) // dirty the scratch
		gq, gk := a.ProbeQK(r, &s)
		for i := range wantQ.Data {
			if math.Float64bits(gq.Data[i]) != math.Float64bits(wantQ.Data[i]) {
				t.Fatalf("%s: G_Q[%d] = %v, Backward gives %v", name, i, gq.Data[i], wantQ.Data[i])
			}
			if math.Float64bits(gk.Data[i]) != math.Float64bits(wantK.Data[i]) {
				t.Fatalf("%s: G_K[%d] = %v, Backward gives %v", name, i, gk.Data[i], wantK.Data[i])
			}
		}
		for _, p := range a.Params() {
			for i, g := range p.Grad.Data {
				if g != float64(i)+0.5 {
					t.Fatalf("%s: ProbeQK wrote %s.Grad[%d]", name, p.Name, i)
				}
			}
		}
	}
}

// TestProbeQKRefitsScratch reuses one scratch across sequence lengths: the
// rows above dS's diagonal must be zero again after a longer sequence.
func TestProbeQKRefitsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := NewAttention(rng, "a", 8, 2, 16, 10000)
	var s QKProbe
	for _, n := range []int{6, 3, 6} {
		x := tensor.Randn(rng, n, 8, 1)
		r := tensor.Randn(rng, n, 8, 1)
		a.Forward(x)
		gq, _ := a.ProbeQK(r, &s)
		for _, p := range a.Params() {
			p.ZeroGrad()
		}
		a.Backward(r)
		if !gq.Equal(AsLinear(a.WQ).P.Grad, 0) {
			t.Fatalf("n = %d: G_Q differs from Backward after a scratch re-fit", n)
		}
	}
}
