package core

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/train"
)

// testModel trains one shared tiny model for the core tests.
var testModel = sync.OnceValue(func() *model.Model {
	src := data.NewC4Like(32)
	m := model.New(model.Tiny(), 1)
	train.Train(m, src, train.Config{Steps: 250, BatchSize: 2, SeqLen: 16, LR: 3e-3, Warmup: 15, ClipNorm: 1, Seed: 1})
	return m
})

func testCalib(n int) *data.CalibrationSet {
	src := data.NewC4Like(32)
	return data.SampleCalibration(rand.New(rand.NewSource(42)), src, n, 16)
}

func collectTestStats(t *testing.T) *Stats {
	t.Helper()
	st, err := CollectStats(testModel(), testCalib(6), CollectOptions{Probes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCollectStatsShapes(t *testing.T) {
	m := testModel()
	st := collectTestStats(t)
	layers := m.QuantizableLayers()
	if len(st.Layers) != len(layers) {
		t.Fatalf("%d stats for %d layers", len(st.Layers), len(layers))
	}
	for i, ls := range st.Layers {
		in := layers[i].Linear.In()
		if ls.XtX.Rows != in || ls.XtX.Cols != in {
			t.Fatalf("%s: XtX shape %dx%d, want %d", ls.Ref.Name(), ls.XtX.Rows, ls.XtX.Cols, in)
		}
		switch layers[i].Role {
		case model.RoleQ, model.RoleK, model.RoleO:
			if ls.AttnH == nil || ls.AttnH.Rows != in {
				t.Fatalf("%s: missing attention Hessian", ls.Ref.Name())
			}
		case model.RoleV:
			if len(ls.HeadH) != layers[i].Attn.Heads {
				t.Fatalf("%s: %d head Hessians", ls.Ref.Name(), len(ls.HeadH))
			}
		default:
			if ls.AttnH != nil || ls.HeadH != nil {
				t.Fatalf("%s: MLP layer has attention Hessians", ls.Ref.Name())
			}
		}
	}
	if st.Tokens != 6*16 {
		t.Fatalf("tokens = %d", st.Tokens)
	}
}

func TestHessiansSymmetricPSD(t *testing.T) {
	st := collectTestStats(t)
	rng := rand.New(rand.NewSource(2))
	for i := range st.Layers {
		ls := &st.Layers[i]
		mats := []*tensor.Mat{ls.XtX, ls.Hessian()}
		mats = append(mats, ls.HeadHessians()...)
		for _, h := range mats {
			if h == nil {
				continue
			}
			if !h.Equal(h.T(), 1e-8) {
				t.Fatalf("%s: Hessian not symmetric", ls.Ref.Name())
			}
			z := make([]float64, h.Rows)
			for trial := 0; trial < 5; trial++ {
				for j := range z {
					z[j] = rng.NormFloat64()
				}
				if tensor.Dot(z, h.MulVec(z)) < -1e-8 {
					t.Fatalf("%s: Hessian not PSD", ls.Ref.Name())
				}
			}
		}
	}
}

func TestProbeEstimatorMatchesAnalyticOnWO(t *testing.T) {
	// For W_O the attention output is linear in the weights, so the probe
	// estimator E[GᵀG]/(P·out) must converge to the analytic effective
	// input Gram ctxᵀ·ctx. This validates the probe machinery used for
	// W_Q / W_K, whose analytic form is unavailable.
	m := testModel()
	attn := m.Blocks[0].Attn
	src := data.NewC4Like(32)
	rng := rand.New(rand.NewSource(3))
	seg := src.Generate(rng, 16)
	m.Forward(seg)

	ctx := attn.LastContext()
	analytic := tensor.Gram(ctx)

	probeH := tensor.New(m.Cfg.Dim, m.Cfg.Dim)
	const probes = 600
	prng := rand.New(rand.NewSource(4))
	r := tensor.New(len(seg), m.Cfg.Dim)
	for p := 0; p < probes; p++ {
		rademacher(prng, r)
		nn.AsLinear(attn.WO).P.ZeroGrad()
		nn.AsLinear(attn.WQ).P.ZeroGrad()
		nn.AsLinear(attn.WK).P.ZeroGrad()
		nn.AsLinear(attn.WV).P.ZeroGrad()
		attn.Backward(r)
		g := nn.AsLinear(attn.WO).P.Grad
		tensor.AddInPlace(probeH, tensor.MatMulTN(g, g))
	}
	probeH.Scale(1 / float64(probes) / float64(m.Cfg.Dim))

	// Compare in relative Frobenius norm.
	diff := tensor.Sub(probeH, analytic)
	rel := diff.FrobeniusNorm() / analytic.FrobeniusNorm()
	if rel > 0.25 {
		t.Fatalf("probe estimator relative error %.3f vs analytic Gram", rel)
	}
}

func TestVHessianIsAttentionMixedGram(t *testing.T) {
	// Direct check of eq. (11): the V-layer head Hessian equals
	// 2/tokens · Σ_seg (A_h·X)ᵀ(A_h·X).
	m := testModel()
	calib := testCalib(3)
	st, err := CollectStats(m, calib, CollectOptions{Probes: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	attn := m.Blocks[0].Attn
	want := tensor.New(m.Cfg.Dim, m.Cfg.Dim)
	tokens := 0
	for _, seg := range calib.Segments {
		m.Forward(seg)
		tokens += len(seg)
		mh := tensor.MatMul(attn.HeadAttn(0), attn.LastInput())
		tensor.AccumGram(want, mh)
	}
	want.Scale(2 / float64(tokens))
	got := st.Layers[2].HeadHessians()[0] // block0 V is index 2
	if !got.Equal(want, 1e-8) {
		t.Fatal("V head Hessian does not match analytic recomputation")
	}
}

func TestStatsDeterministic(t *testing.T) {
	a, err := CollectStats(testModel(), testCalib(4), CollectOptions{Probes: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollectStats(testModel(), testCalib(4), CollectOptions{Probes: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Layers {
		if !a.Layers[i].Hessian().Equal(b.Layers[i].Hessian(), 0) {
			t.Fatalf("stats not deterministic at layer %d", i)
		}
	}
}

func TestCollectStatsEmptyCalibration(t *testing.T) {
	if _, err := CollectStats(testModel(), &data.CalibrationSet{}, CollectOptions{}); err == nil {
		t.Fatal("expected error for empty calibration set")
	}
	// Zero tokens used to pass the check, scale by 1/0 and hand back NaN
	// Hessians with a nil error.
	if _, err := CollectStats(testModel(), &data.CalibrationSet{Segments: [][]int{{}}}, CollectOptions{}); err == nil {
		t.Fatal("expected error for a calibration set with no tokens")
	}
	calib := testCalib(3)
	calib.Segments[1] = nil
	_, err := CollectStats(testModel(), calib, CollectOptions{})
	if err == nil || !strings.Contains(err.Error(), "segment 1") {
		t.Fatalf("expected an error naming empty segment 1, got %v", err)
	}
}

// TestCollectStatsSteadyStateAllocs guards the scratch reuse: past the
// first segment the statistics themselves — probe draws, probe backwards
// and their Grams, the layer and per-head Grams — run in per-block scratch,
// so a segment's allocations are the model's own forward and loss backward
// plus the closure each tensor kernel hands parallel.For (8 per probe per
// block). On this model that is 397 objects per segment at 1 probe and 16
// more per extra probe; the full-backward probe loop allocated 662 and 148.
func TestCollectStatsSteadyStateAllocs(t *testing.T) {
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	m := testModel()
	perSegment := func(probes int) float64 {
		allocs := func(segments int) float64 {
			calib := testCalib(segments)
			return testing.AllocsPerRun(3, func() {
				if _, err := CollectStats(m, calib, CollectOptions{Probes: probes, Seed: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		return (allocs(6) - allocs(2)) / 4
	}
	one, eight := perSegment(1), perSegment(8)
	if one > 450 {
		t.Errorf("a later segment allocates %.0f objects at 1 probe, want <= 450", one)
	}
	if perProbe, max := (eight-one)/7, float64(8*len(m.Blocks)); perProbe > max {
		t.Errorf("a probe allocates %.1f objects per segment, want <= %.0f (kernel closures only)", perProbe, max)
	}
}

func TestMLPHessianMatchesInputGram(t *testing.T) {
	// MLP layers must carry exactly the GPTQ statistic 2XᵀX/tokens of
	// their own inputs.
	m := testModel()
	calib := testCalib(2)
	st, err := CollectStats(m, calib, CollectOptions{Probes: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	gate := nn.AsLinear(m.Blocks[0].MLP.(*nn.MLP).Gate)
	want := tensor.New(gate.In(), gate.In())
	tokens := 0
	for _, seg := range calib.Segments {
		m.Forward(seg)
		tokens += len(seg)
		tensor.AccumGram(want, gate.LastInput())
	}
	want.Scale(2 / float64(tokens))
	got := st.Layers[4].Hessian() // block0 order: q,k,v,o,gate
	if !got.Equal(want, 1e-8) {
		t.Fatal("MLP Hessian != 2XᵀX/tokens")
	}
}

func TestTraceProfile(t *testing.T) {
	m := testModel()
	st := collectTestStats(t)
	prof := st.TraceProfile("q_proj")
	if len(prof) != m.Cfg.Layers {
		t.Fatalf("profile length %d, want %d", len(prof), m.Cfg.Layers)
	}
	for _, v := range prof {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("non-positive trace %v", v)
		}
	}
}
