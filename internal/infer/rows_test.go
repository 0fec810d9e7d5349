// Batch-composition independence: the property cross-session batched
// decode stands on. A row of a shared forward — its logits and the K/V row
// it appends — must be bit-identical to the same session stepped alone,
// whatever other rows ride in the batch, however the rows are grouped and
// at any worker count. B = 1 is pinned to model.Forward by the
// Step-vs-forward tests, so this chains every batched row to the truth.
package infer

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// packMixed packs a Tiny-config model with alternating 2-bit and 4-bit
// layers, so both byte-wise decoders run in every block.
func packMixed(t *testing.T, cfg model.Config) *model.Model {
	t.Helper()
	m := model.New(cfg, 3)
	var packed []*quant.PackedMatrix
	for i, ref := range m.QuantizableLayers() {
		pm, err := quant.PackMatrix(quant.RTN(ref.Linear.P.W, 2+2*(i%2), 8, false))
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

// smoothQuantWA installs SmoothQuant-style deployment transforms on every
// quantizable layer: per-channel input scales and per-token 8-bit
// activation fake-quantization.
func smoothQuantWA(cfg model.Config) *model.Model {
	m := model.New(cfg, 3)
	rng := rand.New(rand.NewSource(5))
	for _, ref := range m.QuantizableLayers() {
		scale := make([]float64, ref.Linear.In())
		for i := range scale {
			scale[i] = 0.5 + rng.Float64()
		}
		ref.Linear.InScale = scale
		ref.Linear.ActQuant = &quant.ActQuantizer{Bits: 8, PerToken: true}
	}
	return m
}

// sameKV reports whether two sessions hold bit-identical K/V rows.
func sameKV(a, b *Session) bool {
	if a.pos != b.pos {
		return false
	}
	if a.pos == 0 {
		return true
	}
	x, y := a.ExportKV(0, a.pos), b.ExportKV(0, b.pos)
	for bi := range x.k {
		if !x.k[bi].Equal(y.k[bi], 0) || !x.v[bi].Equal(y.v[bi], 0) {
			return false
		}
	}
	return true
}

func randTokens(rng *rand.Rand, n, vocab int) []int {
	toks := make([]int, n)
	for i := range toks {
		toks[i] = rng.Intn(vocab)
	}
	return toks
}

func TestDecodeRowsBatchCompositionIndependent(t *testing.T) {
	defer parallel.SetWorkers(0)
	cases := []struct {
		name   string
		m      *model.Model
		kvBits int
	}{
		{"float", model.New(model.Tiny(), 3), 0},
		{"packed-2+4bit", packMixed(t, model.Tiny()), 0},
		{"kvquant4", model.New(model.Tiny(), 3), 4},
		{"gpt", model.New(model.TinyGPT(), 3), 0},
		{"smoothquant-wa", smoothQuantWA(model.Tiny()), 0},
	}
	const steps = 5
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(17))
		cfg := tc.m.Cfg
		for trial := 0; trial < 6; trial++ {
			B := 1 + rng.Intn(8)
			// Every session at its own position, each stepped alone first:
			// the reference logits per step and the final KV.
			prefix := make([][]int, B)
			toks := make([][]int, B)
			alone := make([]*Session, B)
			want := make([][]*tensor.Mat, B)
			for i := 0; i < B; i++ {
				prefix[i] = randTokens(rng, rng.Intn(cfg.MaxSeq-steps), cfg.Vocab)
				toks[i] = randTokens(rng, steps, cfg.Vocab)
				alone[i] = NewSessionPooled(tc.m.View(), NewPagePool(cfg.Dim, cfg.MaxSeq), tc.kvBits)
				for _, id := range append(append([]int(nil), prefix[i]...), toks[i]...) {
					l, err := alone[i].Step(id)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = append(want[i], l.Clone())
				}
				want[i] = want[i][len(prefix[i]):]
			}
			for _, workers := range []int{1, 2, 4} {
				parallel.SetWorkers(workers)
				label := fmt.Sprintf("%s trial=%d B=%d workers=%d", tc.name, trial, B, workers)
				pool := NewPagePool(cfg.Dim, cfg.MaxSeq)
				sess := make([]*Session, B)
				for i := range sess {
					sess[i] = NewSessionPooled(tc.m.View(), pool, tc.kvBits)
					if len(prefix[i]) > 0 {
						if _, err := sess[i].Append(prefix[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				for step := 0; step < steps; step++ {
					// A random batch order cut into random contiguous groups,
					// each one shared forward.
					order := rng.Perm(B)
					for lo := 0; lo < B; {
						hi := lo + 1 + rng.Intn(B-lo)
						group := make([]*Session, 0, hi-lo)
						ids := make([]int, 0, hi-lo)
						for _, i := range order[lo:hi] {
							group = append(group, sess[i])
							ids = append(ids, toks[i][step])
						}
						errs := make([]error, len(group))
						DecodeRows(group, ids, errs)
						for r, i := range order[lo:hi] {
							if errs[r] != nil {
								t.Fatalf("%s step %d: %v", label, step, errs[r])
							}
							if !sess[i].Logits().Equal(want[i][step], 0) {
								t.Fatalf("%s step %d: session %d (pos %d, group of %d) logits differ from the session stepped alone",
									label, step, i, sess[i].Pos()-1, hi-lo)
							}
						}
						lo = hi
					}
				}
				for i := range sess {
					if !sameKV(sess[i], alone[i]) {
						t.Fatalf("%s: session %d K/V rows differ from the session stepped alone", label, i)
					}
				}
			}
		}
	}
}

// TestDecodeRowsFailedRowIsolated: a row that cannot run — out of context,
// or starved of KV pages — is left out of the forward with its session
// bit-for-bit unchanged, and its neighbours' results are untouched.
func TestDecodeRowsFailedRowIsolated(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	cfg := m.Cfg
	rng := rand.New(rand.NewSource(23))
	// Budget: the three sessions' current pages and not one more, so the
	// session sitting on a page boundary cannot lease its next page.
	pool := NewPagePool(cfg.Dim, cfg.MaxSeq)
	pool.SetBudget(int64(len(m.Blocks)) * (2 + 1 + 1) * pool.PageBytes())
	full := NewSessionPooled(m.View(), pool, 0)    // at MaxSeq: out of context
	starved := NewSessionPooled(m.View(), pool, 0) // at a page boundary: needs a page
	ok := NewSessionPooled(m.View(), pool, 0)      // mid-page: has room
	fills := [][]int{randTokens(rng, cfg.MaxSeq, cfg.Vocab), randTokens(rng, pool.Rows(), cfg.Vocab), randTokens(rng, 3, cfg.Vocab)}
	for i, s := range []*Session{full, starved, ok} {
		if _, err := s.PrefillChunked(fills[i], 8); err != nil {
			t.Fatal(err)
		}
	}
	alone := NewSession(m.View())
	if _, err := alone.Append(fills[2]); err != nil {
		t.Fatal(err)
	}
	want, err := alone.Step(7)
	if err != nil {
		t.Fatal(err)
	}

	snap := func(s *Session) (*KVSpan, *tensor.Mat, int) {
		return s.ExportKV(0, s.Pos()), s.Logits().Clone(), s.KVCacheBytes()
	}
	fullKV, fullLogits, fullBytes := snap(full)
	starvedKV, starvedLogits, starvedBytes := snap(starved)
	unchanged := func(name string, s *Session, kv *KVSpan, logits *tensor.Mat, bytes int) {
		t.Helper()
		now := s.ExportKV(0, s.Pos())
		if s.Pos() != kv.End || s.KVCacheBytes() != bytes || !s.Logits().Equal(logits, 0) {
			t.Fatalf("%s row failed but its session moved (pos %d->%d, kv bytes %d->%d)", name, kv.End, s.Pos(), bytes, s.KVCacheBytes())
		}
		for bi := range kv.k {
			if !now.k[bi].Equal(kv.k[bi], 0) || !now.v[bi].Equal(kv.v[bi], 0) {
				t.Fatalf("%s row failed but its K/V rows changed", name)
			}
		}
	}

	errs := make([]error, 3)
	DecodeRows([]*Session{full, starved, ok}, []int{5, 6, 7}, errs)
	if errs[0] == nil || errors.Is(errs[0], ErrPoolExhausted) {
		t.Fatalf("row at MaxSeq: err = %v, want a context-length error", errs[0])
	}
	if !errors.Is(errs[1], ErrPoolExhausted) {
		t.Fatalf("row on a page boundary of a full pool: err = %v, want ErrPoolExhausted", errs[1])
	}
	if errs[2] != nil {
		t.Fatalf("neighbour row failed: %v", errs[2])
	}
	unchanged("out-of-context", full, fullKV, fullLogits, fullBytes)
	unchanged("starved", starved, starvedKV, starvedLogits, starvedBytes)
	if !ok.Logits().Equal(want, 0) || !sameKV(ok, alone) {
		t.Fatal("neighbour of two failed rows differs from the session stepped alone")
	}

	// The starved row retries verbatim once pages are free.
	full.Reset()
	ref := NewSession(m.View())
	if _, err := ref.Append(fills[1]); err != nil {
		t.Fatal(err)
	}
	wantRetry, err := ref.Step(6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := starved.Step(6)
	if err != nil {
		t.Fatalf("retry after pages were freed: %v", err)
	}
	if !got.Equal(wantRetry, 0) || !sameKV(starved, ref) {
		t.Fatal("retried row differs from a never-starved run")
	}
}

// poisonedProjection panics in ForwardInto while armed — a fault in the
// middle of a forward, after earlier blocks already appended K/V rows.
type poisonedProjection struct {
	nn.Projection
	armed *atomic.Bool
}

func (p poisonedProjection) ForwardInto(out, x *tensor.Mat) {
	if p.armed.Load() {
		panic("poisoned layer")
	}
	p.Projection.ForwardInto(out, x)
}

func (p poisonedProjection) View() nn.Projection { return p }

// TestForwardPanicRollsSessionsBack: a panic mid-forward propagates, but
// not before every member session is rolled back to its pre-call position,
// so the same rows can be re-run — together or one at a time — with
// results bit-identical to an undisturbed run.
func TestForwardPanicRollsSessionsBack(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	var armed atomic.Bool
	last := m.Blocks[len(m.Blocks)-1]
	last.Attn.WQ = poisonedProjection{last.Attn.WQ, &armed}
	rng := rand.New(rand.NewSource(29))
	const B = 3
	sess, alone := make([]*Session, B), make([]*Session, B)
	for i := range sess {
		prefix := randTokens(rng, 1+rng.Intn(9), m.Cfg.Vocab)
		sess[i], alone[i] = NewSession(m.View()), NewSession(m.View())
		for _, s := range []*Session{sess[i], alone[i]} {
			if _, err := s.Append(prefix); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := make([]*KVSpan, B)
	for i, s := range sess {
		before[i] = s.ExportKV(0, s.Pos())
	}
	toks := []int{4, 5, 6}
	errs := make([]error, B)

	armed.Store(true)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("poisoned forward did not panic")
			}
		}()
		DecodeRows(sess, toks, errs)
	}()
	armed.Store(false)
	for i, s := range sess {
		if s.Pos() != before[i].End {
			t.Fatalf("session %d at position %d after a panicked forward, want %d", i, s.Pos(), before[i].End)
		}
		for bi, c := range s.caches {
			if c.len != s.Pos() {
				t.Fatalf("session %d block %d holds %d K/V rows at position %d", i, bi, c.len, s.Pos())
			}
		}
	}
	DecodeRows(sess, toks, errs)
	for i, s := range sess {
		want, err := alone[i].Step(toks[i])
		if err != nil || errs[i] != nil {
			t.Fatal(err, errs[i])
		}
		if !s.Logits().Equal(want, 0) || !sameKV(s, alone[i]) {
			t.Fatalf("session %d re-run after a panicked forward differs from an undisturbed run", i)
		}
	}
}

// TestDecodeRowGroupIsolatesPanickingRow: a row whose token is out of
// vocabulary panics the forward it shares; through DecodeRowGroup — Batch's
// and the scheduler's entry — exactly that row reports a *RowPanic with its
// session unchanged, and the rows that shared its forward are bit-identical
// to stepping alone, at any worker count.
func TestDecodeRowGroupIsolatesPanickingRow(t *testing.T) {
	defer parallel.SetWorkers(0)
	m := model.New(model.Tiny(), 3)
	const B, bad = 5, 3
	for _, workers := range []int{1, 2, 4} {
		parallel.SetWorkers(workers)
		rng := rand.New(rand.NewSource(31))
		b := NewBatch(m, B)
		alone := make([]*Session, B)
		toks := make([]int, B)
		for i := range alone {
			prefix := randTokens(rng, 1+rng.Intn(9), m.Cfg.Vocab)
			alone[i] = NewSession(m.View())
			for _, s := range []*Session{b.Session(i), alone[i]} {
				if _, err := s.Append(prefix); err != nil {
					t.Fatal(err)
				}
			}
			toks[i] = rng.Intn(m.Cfg.Vocab)
		}
		toks[bad] = m.Cfg.Vocab
		var rp *RowPanic
		if _, err := b.Step(toks); !errors.As(err, &rp) {
			t.Fatalf("workers=%d: Step over an out-of-vocabulary token: err = %v, want a *RowPanic", workers, err)
		}
		for i, s := range b.sessions {
			if i == bad {
				if b.errs[i] == nil || !sameKV(s, alone[i]) {
					t.Fatalf("workers=%d: the panicking row: err = %v, session moved = %v", workers, b.errs[i], !sameKV(s, alone[i]))
				}
				continue
			}
			want, err := alone[i].Step(toks[i])
			if err != nil || b.errs[i] != nil {
				t.Fatal(err, b.errs[i])
			}
			if !s.Logits().Equal(want, 0) || !sameKV(s, alone[i]) {
				t.Fatalf("workers=%d: row %d beside a panicking row differs from stepping alone", workers, i)
			}
		}
	}
}
