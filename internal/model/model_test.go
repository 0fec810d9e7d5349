package model

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{Nano7B(), Nano13B(), Tiny()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	bad := Tiny()
	bad.Heads = 3 // 16 % 3 != 0
	if bad.Validate() == nil {
		t.Fatal("expected invalid config")
	}
	bad = Tiny()
	bad.Vocab = 0
	if bad.Validate() == nil {
		t.Fatal("expected invalid vocab")
	}
}

func TestForwardShape(t *testing.T) {
	m := New(Tiny(), 1)
	ids := []int{1, 2, 3, 4, 5}
	logits := m.Forward(ids)
	if logits.Rows != 5 || logits.Cols != m.Cfg.Vocab {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
}

func TestForwardDeterministic(t *testing.T) {
	m := New(Tiny(), 1)
	ids := []int{3, 1, 4, 1, 5}
	a := m.Forward(ids).Clone()
	b := m.Forward(ids)
	if !a.Equal(b, 0) {
		t.Fatal("forward must be deterministic")
	}
}

func TestSameSeedSameModel(t *testing.T) {
	a := New(Tiny(), 7)
	b := New(Tiny(), 7)
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !pa[i].W.Equal(pb[i].W, 0) {
			t.Fatalf("param %s differs across same-seed constructions", pa[i].Name)
		}
	}
}

func TestModelGradCheck(t *testing.T) {
	// End-to-end gradient check on a few randomly selected parameters from
	// every layer type.
	m := New(Tiny(), 2)
	ids := []int{1, 5, 9, 2}
	targets := []int{5, 9, 2, 7}
	m.ZeroGrad()
	m.LossAndBackward(ids, targets)

	rng := rand.New(rand.NewSource(3))
	const eps = 1e-5
	for _, p := range m.Params() {
		for trial := 0; trial < 3; trial++ {
			i := rng.Intn(len(p.W.Data))
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := m.Loss(ids, targets)
			p.W.Data[i] = orig - eps
			lm := m.Loss(ids, targets)
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if diff := math.Abs(num - p.Grad.Data[i]); diff > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(Tiny(), 4)
	c := m.Clone()
	ids := []int{1, 2, 3}
	if !m.Forward(ids).Equal(c.Forward(ids), 1e-12) {
		t.Fatal("clone must produce identical outputs")
	}
	nn.AsLinear(c.Blocks[0].Attn.WQ).P.W.Data[0] += 100
	if nn.AsLinear(m.Blocks[0].Attn.WQ).P.W.Data[0] == nn.AsLinear(c.Blocks[0].Attn.WQ).P.W.Data[0] {
		t.Fatal("clone must not share weight storage")
	}
}

func TestQuantizableLayers(t *testing.T) {
	m := New(Tiny(), 5)
	layers := m.QuantizableLayers()
	if len(layers) != 7*m.Cfg.Layers {
		t.Fatalf("got %d quantizable layers, want %d", len(layers), 7*m.Cfg.Layers)
	}
	if layers[0].Name() != "block00.self_attn.q_proj" {
		t.Fatalf("first layer name %q", layers[0].Name())
	}
	if layers[6].Name() != "block00.mlp.down_proj" {
		t.Fatalf("seventh layer name %q", layers[6].Name())
	}
	for _, l := range layers {
		if l.Role.IsAttention() && l.Attn == nil {
			t.Fatalf("%s: attention layer missing Attn reference", l.Name())
		}
		if !l.Role.IsAttention() && l.Attn != nil {
			t.Fatalf("%s: MLP layer has Attn reference", l.Name())
		}
	}
	// Quantizable count excludes embed/head/norm parameters.
	if m.QuantizableWeightCount() >= m.NumParams() {
		t.Fatal("quantizable weights must be a strict subset of all parameters")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := New(Tiny(), 6)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{2, 4, 6}
	if !m.Forward(ids).Equal(got.Forward(ids), 0) {
		t.Fatal("loaded model differs from saved model")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestNumParams(t *testing.T) {
	cfg := Tiny()
	m := New(cfg, 7)
	// embed + head: 2 * vocab*dim; per block: 2 norms (dim) + 4*dim² + 2*dim*ff + ff*dim; final norm: dim.
	want := 2*cfg.Vocab*cfg.Dim + cfg.Layers*(2*cfg.Dim+4*cfg.Dim*cfg.Dim+3*cfg.Dim*cfg.FF) + cfg.Dim
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
}

func TestLossDecreasesWithPeakedLogits(t *testing.T) {
	// Sanity: an untrained tiny model's loss is near ln(vocab).
	m := New(Tiny(), 8)
	ids := []int{1, 2, 3, 4, 5, 6, 7, 8}
	targets := []int{2, 3, 4, 5, 6, 7, 8, 9}
	loss := m.Loss(ids, targets)
	uniform := math.Log(float64(m.Cfg.Vocab))
	if math.Abs(loss-uniform) > 1.0 {
		t.Fatalf("untrained loss %v too far from uniform %v", loss, uniform)
	}
}

func TestForwardUsesAllBlocks(t *testing.T) {
	m := New(Tiny(), 9)
	ids := []int{1, 2, 3}
	before := m.Forward(ids).Clone()
	// Perturb the last block's output projection: logits must change.
	last := m.Blocks[len(m.Blocks)-1]
	tensor.AddScaled(nn.AsLinear(last.Attn.WO).P.W, 0.5, tensor.Randn(rand.New(rand.NewSource(1)), m.Cfg.Dim, m.Cfg.Dim, 1))
	after := m.Forward(ids)
	if before.Equal(after, 1e-9) {
		t.Fatal("perturbing last block did not change logits")
	}
}

// TestBackwardFromLogitsMatchesLossAndBackward: a Forward followed by
// BackwardFromLogits on its logits is LossAndBackward — same loss, same
// bits in every gradient — on both architectures, so training and the
// one-forward calibration pass share their numerics.
func TestBackwardFromLogitsMatchesLossAndBackward(t *testing.T) {
	ids := []int{1, 5, 9, 2, 30, 7}
	targets := []int{5, 9, 2, 30, 7, -1}
	for _, cfg := range []Config{Tiny(), TinyGPT()} {
		whole, split := New(cfg, 2), New(cfg, 2)
		wantLoss := whole.LossAndBackward(ids, targets)
		logits := split.Forward(ids)
		if gotLoss := split.BackwardFromLogits(logits, targets); gotLoss != wantLoss {
			t.Fatalf("%s: loss %v from logits, %v from LossAndBackward", cfg.Name, gotLoss, wantLoss)
		}
		want, got := whole.Params(), split.Params()
		for i := range want {
			for j, g := range want[i].Grad.Data {
				if math.Float64bits(got[i].Grad.Data[j]) != math.Float64bits(g) {
					t.Fatalf("%s: %s.Grad[%d] = %v, want %v", cfg.Name, want[i].Name, j, got[i].Grad.Data[j], g)
				}
			}
		}
	}
}
