package infer

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// packTiny swaps every quantizable projection of a fresh Tiny-config model
// for its 4-bit packed form (RTN, group 8) and returns the packed view.
func packTiny(t *testing.T, cfg model.Config) *model.Model {
	t.Helper()
	m := model.New(cfg, 3)
	var packed []*quant.PackedMatrix
	for _, ref := range m.QuantizableLayers() {
		pm, err := quant.PackMatrix(quant.RTN(ref.Linear.P.W, 4, 8, false))
		if err != nil {
			t.Fatal(err)
		}
		packed = append(packed, pm)
	}
	qm, err := model.NewQuantizedModel(m, packed)
	if err != nil {
		t.Fatal(err)
	}
	return qm.Model
}

// prefillSessions builds a fresh pair of sessions over views of m, with
// an optional quantized KV cache.
func prefillSessions(m *model.Model, kvBits int) (ref, chunked *Session) {
	if kvBits > 0 {
		return NewSessionKVQuant(m.View(), kvBits), NewSessionKVQuant(m.View(), kvBits)
	}
	return NewSession(m.View()), NewSession(m.View())
}

// TestPrefillChunkedBitIdenticalToLoop is the defining property of the
// chunked prompt path: at every chunk size, worker count, prompt length,
// architecture (LLaMA/RoPE and GPT/learned-positional), weight form
// (float and packed) and KV-cache precision, PrefillChunked's logits are
// bit-identical to the one-token-at-a-time Step loop — and so is the
// decode that continues from the primed cache.
func TestPrefillChunkedBitIdenticalToLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		name   string
		m      *model.Model
		kvBits int
	}{
		{"float-llama", model.New(model.Tiny(), 3), 0},
		{"float-gpt", model.New(model.TinyGPT(), 3), 0},
		{"packed-llama", packTiny(t, model.Tiny()), 0},
		{"kvquant4", model.New(model.Tiny(), 3), 4},
	}
	for _, tc := range cases {
		for _, promptLen := range []int{1, 5, 16, 31} {
			prompt := make([]int, promptLen)
			for i := range prompt {
				prompt[i] = rng.Intn(tc.m.Cfg.Vocab)
			}
			ref, _ := prefillSessions(tc.m, tc.kvBits)
			want, err := ref.PrefillLoop(prompt)
			if err != nil {
				t.Fatalf("%s len=%d: %v", tc.name, promptLen, err)
			}
			wantNext, err := ref.Step(prompt[0])
			if err != nil {
				t.Fatalf("%s len=%d: %v", tc.name, promptLen, err)
			}
			for _, chunk := range []int{1, 2, 3, 7, 16, promptLen} {
				for _, workers := range []int{1, 4} {
					parallel.SetWorkers(workers)
					_, sess := prefillSessions(tc.m, tc.kvBits)
					got, err := sess.PrefillChunked(prompt, chunk)
					if err != nil {
						parallel.SetWorkers(0)
						t.Fatalf("%s len=%d chunk=%d workers=%d: %v", tc.name, promptLen, chunk, workers, err)
					}
					if !got.Equal(want, 0) {
						parallel.SetWorkers(0)
						t.Fatalf("%s len=%d chunk=%d workers=%d: chunked logits not bit-identical to the Step loop",
							tc.name, promptLen, chunk, workers)
					}
					// The primed KV cache must continue decoding identically.
					gotNext, err := sess.Step(prompt[0])
					parallel.SetWorkers(0)
					if err != nil {
						t.Fatalf("%s len=%d chunk=%d workers=%d: %v", tc.name, promptLen, chunk, workers, err)
					}
					if !gotNext.Equal(wantNext, 0) {
						t.Fatalf("%s len=%d chunk=%d workers=%d: decode after chunked prefill diverged",
							tc.name, promptLen, chunk, workers)
					}
				}
			}
		}
	}
}

// TestAppendMidDecode: Append composes with Step at arbitrary positions —
// a session that interleaves single steps and batched appends matches the
// pure Step loop.
func TestAppendMidDecode(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	tokens := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	ref := NewSession(m.View())
	want, err := ref.PrefillLoop(tokens)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(m.View())
	if _, err := sess.Step(tokens[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Append(tokens[1:7]); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(tokens[7]); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Append(tokens[8:])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatal("interleaved Step/Append diverged from the Step loop")
	}
}

// TestPrefillRollbackOnError is the partial-failure regression test: a
// Prefill that fails mid-prompt (context overflow after some chunks were
// already consumed) must roll the session back to its pre-call state —
// position and KV rows — so the session remains usable and decodes as if
// the failed call never happened. Previously the session was left
// half-advanced with the failed prompt's prefix poisoning the KV cache.
func TestPrefillRollbackOnError(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	maxSeq := m.Cfg.MaxSeq
	tooLong := make([]int, maxSeq+5)
	for i := range tooLong {
		tooLong[i] = 1 + i%(m.Cfg.Vocab-1)
	}
	prefix := []int{3, 1, 4}
	for _, tc := range []struct {
		name    string
		prefill func(s *Session, prompt []int) (*tensor.Mat, error)
	}{
		{"chunked", func(s *Session, p []int) (*tensor.Mat, error) { return s.PrefillChunked(p, 4) }},
		{"loop", func(s *Session, p []int) (*tensor.Mat, error) { return s.PrefillLoop(p) }},
	} {
		sess := NewSession(m.View())
		if _, err := sess.Prefill(prefix); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		kvBefore := sess.KVCacheBytes()
		if _, err := tc.prefill(sess, tooLong); err == nil {
			t.Fatalf("%s: overflow prompt must fail", tc.name)
		} else if !strings.Contains(err.Error(), "exceeds MaxSeq") {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
		if sess.Pos() != len(prefix) {
			t.Fatalf("%s: pos = %d after rollback, want %d", tc.name, sess.Pos(), len(prefix))
		}
		if sess.KVCacheBytes() < kvBefore {
			t.Fatalf("%s: rollback freed KV capacity", tc.name)
		}
		// The session must continue exactly like one that never saw the
		// failed prompt.
		fresh := NewSession(m.View())
		if _, err := fresh.Prefill(prefix); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Step(7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Step(7)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !got.Equal(want, 0) {
			t.Fatalf("%s: decode after rollback diverged from an untouched session", tc.name)
		}
	}
}

// TestAppendValidatesBeforeTouchingState: a too-long Append fails without
// consuming anything even when the session is empty, and an empty Append
// reports ErrEmptyPrompt.
func TestAppendValidatesBeforeTouchingState(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	sess := NewSession(m.View())
	if _, err := sess.Append(nil); err != ErrEmptyPrompt {
		t.Fatalf("empty Append = %v, want ErrEmptyPrompt", err)
	}
	tooLong := make([]int, m.Cfg.MaxSeq+1)
	if _, err := sess.Append(tooLong); err == nil {
		t.Fatal("overflow Append must fail")
	}
	if sess.Pos() != 0 || sess.KVCacheBytes() != 0 {
		t.Fatalf("failed Append advanced the session: pos=%d kv=%d", sess.Pos(), sess.KVCacheBytes())
	}
}

// TestAppendSteadyStateAllocs pins the scratch-arena property: once a
// session has served one request, further same-size chunks allocate
// nothing on the float path (single-worker run, where no goroutine
// dispatch happens), and only the pooled decode buffers' noise on the
// packed path.
func TestAppendSteadyStateAllocs(t *testing.T) {
	chunk := make([]int, DefaultPrefillChunk)
	for i := range chunk {
		chunk[i] = 1 + i
	}
	run := func(m *model.Model) float64 {
		parallel.SetWorkers(1)
		defer parallel.SetWorkers(0)
		sess := NewSession(m.View())
		// Warm scratch, KV chunks and (packed) pooled decode buffers.
		if _, err := sess.Append(chunk); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			sess.Reset()
			if _, err := sess.Append(chunk); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Append(chunk); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs := run(model.New(model.Tiny(), 3)); allocs > 0 {
		t.Fatalf("float chunked prefill allocates %v per request in steady state, want 0", allocs)
	}
	// The packed path's only steady-state allocations are pooled decode
	// buffers; the race runtime deliberately drops pool puts, so only the
	// race-free build pins the bound.
	packedBound := 4.0
	if raceEnabled {
		packedBound = 64
	}
	if allocs := run(packTiny(t, model.Tiny())); allocs > packedBound {
		t.Fatalf("packed chunked prefill allocates %v per request in steady state", allocs)
	}
}
