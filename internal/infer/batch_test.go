package infer

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/quant"
)

func testPrompts(rng *rand.Rand, n, vocab, maxLen int) [][]int {
	prompts := make([][]int, n)
	for i := range prompts {
		prompts[i] = make([]int, 1+rng.Intn(maxLen))
		for j := range prompts[i] {
			prompts[i][j] = rng.Intn(vocab)
		}
	}
	return prompts
}

// mustGenerate runs Batch.Generate and fails the test on any batch-level
// or per-sequence error.
func mustGenerate(t *testing.T, b *Batch, seed int64, prompts [][]int, n int, temperature float64) [][]int {
	t.Helper()
	tokens, errs, err := b.Generate(seed, prompts, n, temperature)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("sequence %d: %v", i, e)
		}
	}
	return tokens
}

// independentGenerate is the reference semantics of Batch.Generate: each
// sequence decoded by its own serial session with RNG seed+i.
func independentGenerate(t *testing.T, m *model.Model, seed int64, prompts [][]int, n int, temperature float64) [][]int {
	t.Helper()
	out := make([][]int, len(prompts))
	for i, p := range prompts {
		s := NewSession(m)
		toks, err := s.Generate(rand.New(rand.NewSource(seed+int64(i))), p, n, temperature)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = toks
	}
	return out
}

// TestBatchGenerateMatchesIndependentSessions is the batched-decode
// equality property: at every worker count, Batch.Generate must produce
// exactly the tokens of N independent sessions.
func TestBatchGenerateMatchesIndependentSessions(t *testing.T) {
	for _, cfg := range []model.Config{model.Tiny(), model.TinyGPT()} {
		m := model.New(cfg, 1)
		rng := rand.New(rand.NewSource(3))
		prompts := testPrompts(rng, 5, cfg.Vocab, 4)
		const seed, steps, temp = 42, 8, 0.9
		want := independentGenerate(t, m, seed, prompts, steps, temp)
		for _, workers := range []int{1, 2, 3, 8} {
			parallel.SetWorkers(workers)
			b := NewBatch(m, len(prompts))
			got := mustGenerate(t, b, seed, prompts, steps, temp)
			parallel.SetWorkers(0)
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("%s workers=%d: sequence %d token %d = %d, want %d",
							cfg.Name, workers, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

func TestBatchGenerateGreedyPackedMatchesFloat(t *testing.T) {
	// A packed model batch must decode exactly like the float model
	// holding the dequantized weights (greedy, so sampling noise cannot
	// mask a mismatch).
	cfg := model.Tiny()
	m := model.New(cfg, 1)
	ref := m.Clone()
	refLayers := ref.QuantizableLayers()
	var packed []*quant.PackedMatrix
	for i, lr := range m.QuantizableLayers() {
		q := quant.RTN(lr.Linear.P.W, 4, 8, false)
		pm, err := quant.PackMatrix(q)
		if err != nil {
			t.Fatal(err)
		}
		packed = append(packed, pm)
		refLayers[i].Linear.P.W.CopyFrom(q.Dequantize())
	}
	qm, err := model.NewQuantizedModel(m, packed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	prompts := testPrompts(rng, 4, cfg.Vocab, 3)
	parallel.SetWorkers(4)
	defer parallel.SetWorkers(0)
	want := mustGenerate(t, NewBatch(ref, len(prompts)), 1, prompts, 6, 0)
	got := mustGenerate(t, NewBatch(qm.Model, len(prompts)), 1, prompts, 6, 0)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("sequence %d token %d: packed %d, float %d", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestBatchStepAndReset(t *testing.T) {
	cfg := model.Tiny()
	m := model.New(cfg, 1)
	b := NewBatch(m, 3)
	logits, err := b.Step([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range logits {
		if l.Rows != 1 || l.Cols != cfg.Vocab {
			t.Fatalf("session %d logits %dx%d", i, l.Rows, l.Cols)
		}
	}
	if b.Session(0).Pos() != 1 {
		t.Fatal("step did not advance")
	}
	b.Reset()
	if b.Session(0).Pos() != 0 {
		t.Fatal("reset did not rewind")
	}
	if _, err := b.Step([]int{1}); err == nil {
		t.Fatal("expected token-count mismatch error")
	}
	if _, _, err := b.Generate(1, [][]int{{1}, {2}}, 2, 0); err == nil {
		t.Fatal("expected prompt-count mismatch error")
	}
}

// TestBatchGeneratePartialFailure is the per-sequence error contract: a
// failing sequence reports its own error while every other sequence still
// decodes to completion with exactly the tokens of an independent run.
func TestBatchGeneratePartialFailure(t *testing.T) {
	cfg := model.Tiny()
	m := model.New(cfg, 1)
	rng := rand.New(rand.NewSource(11))
	prompts := testPrompts(rng, 4, cfg.Vocab, 3)
	prompts[1] = nil // empty prompt: fails at prefill
	const seed, steps, temp = 5, 6, 0.9

	healthy := []int{0, 2, 3}
	want := make(map[int][]int)
	for _, i := range healthy {
		s := NewSession(m)
		toks, err := s.Generate(rand.New(rand.NewSource(seed+int64(i))), prompts[i], steps, temp)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = toks
	}

	tokens, errs, err := NewBatch(m, len(prompts)).Generate(seed, prompts, steps, temp)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[1], ErrEmptyPrompt) {
		t.Fatalf("sequence 1 error = %v, want ErrEmptyPrompt", errs[1])
	}
	if len(tokens[1]) != 0 {
		t.Fatalf("failed sequence produced tokens %v", tokens[1])
	}
	for _, i := range healthy {
		if errs[i] != nil {
			t.Fatalf("healthy sequence %d: %v", i, errs[i])
		}
		if len(tokens[i]) != steps {
			t.Fatalf("sequence %d generated %d tokens, want %d", i, len(tokens[i]), steps)
		}
		for j := range want[i] {
			if tokens[i][j] != want[i][j] {
				t.Fatalf("sequence %d token %d = %d, want %d", i, j, tokens[i][j], want[i][j])
			}
		}
	}
}

// TestBatchGenerateMidFlightFailure: a sequence that dies mid-decode
// (MaxSeq overflow) keeps its pre-failure tokens and does not disturb the
// others.
func TestBatchGenerateMidFlightFailure(t *testing.T) {
	cfg := model.Tiny()
	m := model.New(cfg, 1)
	long := make([]int, cfg.MaxSeq-2) // room for only 2 more positions
	for i := range long {
		long[i] = 1 + i%(cfg.Vocab-1)
	}
	prompts := [][]int{{1, 2}, long}
	const steps = 6
	tokens, errs, err := NewBatch(m, len(prompts)).Generate(3, prompts, steps, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || len(tokens[0]) != steps {
		t.Fatalf("short sequence: errs=%v tokens=%d", errs[0], len(tokens[0]))
	}
	if errs[1] == nil {
		t.Fatal("overlong sequence must report a MaxSeq error")
	}
	if len(tokens[1]) == 0 || len(tokens[1]) >= steps {
		t.Fatalf("overlong sequence kept %d tokens, want partial output", len(tokens[1]))
	}
}

func TestBatchKVQuantMatchesKVQuantSessions(t *testing.T) {
	cfg := model.Tiny()
	m := model.New(cfg, 1)
	rng := rand.New(rand.NewSource(7))
	prompts := testPrompts(rng, 3, cfg.Vocab, 3)
	want := make([][]int, len(prompts))
	for i, p := range prompts {
		s := NewSessionKVQuant(m, 4)
		toks, err := s.Generate(rand.New(rand.NewSource(9+int64(i))), p, 5, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = toks
	}
	parallel.SetWorkers(3)
	defer parallel.SetWorkers(0)
	b := NewBatch(m, len(prompts))
	for i := range prompts {
		b.Session(i).kvQuant = newKVQuantizer(4)
	}
	got := mustGenerate(t, b, 9, prompts, 5, 0.8)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("sequence %d token %d: batch %d, serial %d", i, j, got[i][j], want[i][j])
			}
		}
	}
}
