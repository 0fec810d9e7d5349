package infer

import (
	"testing"

	"repro/internal/model"
)

// pooledPair returns two sessions over one shared pool (the scheduler's
// slot arrangement), for the given weights and KV bit width.
func pooledPair(m *model.Model, kvBits int) (*KVPagePool, *Session, *Session) {
	pool := NewPagePool(m.Cfg.Dim, m.Cfg.MaxSeq)
	return pool, NewSessionPooled(m.View(), pool, kvBits), NewSessionPooled(m.View(), pool, kvBits)
}

// pagePrompt builds a deterministic prompt of n tokens.
func pagePrompt(n, vocab int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = 1 + (i*7+3)%(vocab-1)
	}
	return p
}

// TestAdoptPagesBitIdenticalToColdPrefill is the zero-copy attach
// contract: a session that adopts another session's prefix pages by
// reference, then prefills only the suffix, produces logits and decode
// steps bit-identical to a cold prefill — for float and packed weights
// and a quantized KV cache, exactly like the memcpy ImportKV path it
// shortcuts.
func TestAdoptPagesBitIdenticalToColdPrefill(t *testing.T) {
	cases := []struct {
		name   string
		m      *model.Model
		kvBits int
	}{
		{"float", model.New(model.Tiny(), 3), 0},
		{"packed", packTiny(t, model.Tiny()), 0},
		{"kvquant4", model.New(model.Tiny(), 3), 4},
	}
	for _, tc := range cases {
		pool, donor, warm := pooledPair(tc.m, tc.kvBits)
		rows := pool.Rows()
		prompt := pagePrompt(rows+3, tc.m.Cfg.Vocab) // one full page plus a tail

		cold := NewSessionPooled(tc.m.View(), pool, tc.kvBits)
		want, err := cold.Prefill(prompt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantNext, err := cold.Step(prompt[0])
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		if _, err := donor.Prefill(prompt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		span := donor.SharePages(0, rows)
		if span.Tokens() != rows || span.Bytes() <= 0 {
			t.Fatalf("%s: span covers %d tokens, %d bytes", tc.name, span.Tokens(), span.Bytes())
		}
		before := pool.Stats().PagesInUse
		if err := warm.AdoptPages(span); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := pool.Stats().PagesInUse; got != before {
			t.Fatalf("%s: adoption changed pages in use %d -> %d — it must share, not copy", tc.name, before, got)
		}
		span.Release()
		if warm.Pos() != rows {
			t.Fatalf("%s: pos %d after adoption, want %d", tc.name, warm.Pos(), rows)
		}
		got, err := warm.Prefill(prompt[rows:])
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !got.Equal(want, 0) {
			t.Fatalf("%s: warm prefill logits diverged from cold prefill", tc.name)
		}
		gotNext, err := warm.Step(prompt[0])
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !gotNext.Equal(wantNext, 0) {
			t.Fatalf("%s: decode after page adoption diverged from cold session", tc.name)
		}
	}
}

// TestExportKVRoundTripsAcrossPagedRepresentation: ExportKV stays the
// compatibility oracle over the paged cache — a span exported from a
// session holding *shared* (adopted) pages carries the same bytes as one
// exported from the donor, and importing it into a fresh private-pool
// session reproduces cold-prefill output bit-identically — for float,
// packed and KV-quant representations.
func TestExportKVRoundTripsAcrossPagedRepresentation(t *testing.T) {
	cases := []struct {
		name   string
		m      *model.Model
		kvBits int
	}{
		{"float", model.New(model.Tiny(), 3), 0},
		{"packed", packTiny(t, model.Tiny()), 0},
		{"kvquant4", model.New(model.Tiny(), 3), 4},
	}
	newPrivate := func(m *model.Model, kvBits int) *Session {
		if kvBits > 0 {
			return NewSessionKVQuant(m.View(), kvBits)
		}
		return NewSession(m.View())
	}
	for _, tc := range cases {
		pool, donor, warm := pooledPair(tc.m, tc.kvBits)
		rows := pool.Rows()
		prompt := pagePrompt(rows+5, tc.m.Cfg.Vocab)

		cold := newPrivate(tc.m, tc.kvBits)
		if _, err := cold.Prefill(prompt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		if _, err := donor.Prefill(prompt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		span := donor.SharePages(0, rows)
		if err := warm.AdoptPages(span); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		span.Release()
		if _, err := warm.Prefill(prompt[rows:]); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		// Export from the session whose cache mixes shared pages (the
		// adopted prefix) and private pages (the prefilled suffix), import
		// into a fresh session on a different pool: the memcpy path must
		// reproduce the full state.
		exported := warm.ExportKV(0, len(prompt))
		replay := newPrivate(tc.m, tc.kvBits)
		if err := replay.ImportKV(exported); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := replay.Step(prompt[0])
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantStep, err := cold.Step(prompt[0])
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !got.Equal(wantStep, 0) {
			t.Fatalf("%s: Export/Import round-trip over shared pages diverged from cold session", tc.name)
		}
	}
}

// TestSharePagesValidation: misaligned or out-of-range shares panic — the
// caller contract — and AdoptPages rejects cross-pool spans, misplaced
// sessions and over-long spans without touching state.
func TestSharePagesValidation(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	pool, donor, warm := pooledPair(m, 0)
	rows := pool.Rows()
	prompt := pagePrompt(rows+2, m.Cfg.Vocab)
	if _, err := donor.Prefill(prompt); err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("unaligned lo", func() { donor.SharePages(1, rows) })
	mustPanic("unaligned hi", func() { donor.SharePages(0, rows+1) })
	mustPanic("past pos", func() { donor.SharePages(0, 2*rows) })

	span := donor.SharePages(0, rows)
	defer span.Release()

	// A session mid-sequence cannot adopt a span starting at 0.
	if _, err := warm.Prefill(prompt[:2]); err != nil {
		t.Fatal(err)
	}
	if err := warm.AdoptPages(span); err == nil {
		t.Fatal("adoption into a mid-sequence session must fail")
	}
	warm.Reset()

	// A span from a different pool is rejected even at the right position.
	otherPool := NewPagePool(m.Cfg.Dim, m.Cfg.MaxSeq)
	otherDonor := NewSessionPooled(m.View(), otherPool, 0)
	if _, err := otherDonor.Prefill(prompt); err != nil {
		t.Fatal(err)
	}
	foreign := otherDonor.SharePages(0, rows)
	defer foreign.Release()
	if err := warm.AdoptPages(foreign); err == nil {
		t.Fatal("adoption across pools must fail")
	}
	if warm.Pos() != 0 || warm.KVCacheBytes() != 0 {
		t.Fatalf("failed adoption advanced the session: pos=%d kv=%d", warm.Pos(), warm.KVCacheBytes())
	}

	// The valid adoption still works after the failures.
	if err := warm.AdoptPages(span); err != nil {
		t.Fatal(err)
	}
	if warm.Pos() != rows {
		t.Fatalf("pos %d after adoption, want %d", warm.Pos(), rows)
	}
}

// TestPagePoolRefcountLifecycle: shares and adoptions bump refcounts,
// releases drop them, and once every holder lets go the pool drains to
// zero pages in use with all capacity parked on the free list.
func TestPagePoolRefcountLifecycle(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	pool, donor, warm := pooledPair(m, 0)
	rows := pool.Rows()
	prompt := pagePrompt(rows+1, m.Cfg.Vocab)
	if _, err := donor.Prefill(prompt); err != nil {
		t.Fatal(err)
	}
	perBlock := (rows + 1 + rows - 1) / rows // pages per block donor holds
	wantInUse := int64(len(m.Blocks) * perBlock)
	if got := pool.Stats().PagesInUse; got != wantInUse {
		t.Fatalf("donor holds %d pages, want %d", got, wantInUse)
	}

	span := donor.SharePages(0, rows)
	if err := warm.AdoptPages(span); err != nil {
		t.Fatal(err)
	}
	// Sharing adds holders, not pages.
	if got := pool.Stats().PagesInUse; got != wantInUse {
		t.Fatalf("after share+adopt %d pages in use, want %d", got, wantInUse)
	}

	// Donor resets: the shared pages survive (span + warm still hold
	// them); only the donor's private tail page frees.
	donor.Reset()
	if got := pool.Stats().PagesInUse; got != int64(len(m.Blocks)) {
		t.Fatalf("after donor reset %d pages in use, want %d", got, len(m.Blocks))
	}
	span.Release()
	if got := pool.Stats().PagesInUse; got != int64(len(m.Blocks)) {
		t.Fatalf("after span release %d pages in use, want %d (warm still holds them)", got, len(m.Blocks))
	}
	warm.Reset()
	st := pool.Stats()
	if st.PagesInUse != 0 {
		t.Fatalf("%d pages leaked after all holders released", st.PagesInUse)
	}
	if st.FreePages != wantInUse {
		t.Fatalf("free list holds %d pages, want %d recycled", st.FreePages, wantInUse)
	}
}

// TestReplacePagesDropsDuplicateCopy: two sessions that prefilled the same
// prompt hold the same bytes in different pages; after one replaces its
// full page with the other's, the pool holds that page once, the session
// decodes bit-identically to a session that kept its own copy, and every
// reference still returns to the pool.
func TestReplacePagesDropsDuplicateCopy(t *testing.T) {
	for _, kvBits := range []int{0, 4} {
		m := model.New(model.Tiny(), 3)
		pool, first, second := pooledPair(m, kvBits)
		rows := pool.Rows()
		prompt := pagePrompt(rows+3, m.Cfg.Vocab) // one full page plus a tail
		keeper := NewSessionPooled(m.View(), pool, kvBits)
		for _, s := range []*Session{first, second, keeper} {
			if _, err := s.Prefill(prompt); err != nil {
				t.Fatal(err)
			}
		}
		blocks := int64(len(m.Blocks))
		if got := pool.Stats().PagesInUse; got != 6*blocks {
			t.Fatalf("kv%d: three private copies hold %d pages, want %d", kvBits, got, 6*blocks)
		}

		span := first.SharePages(0, rows)
		second.ReplacePages(span)
		second.ReplacePages(span) // already the same pages: a no-op
		span.Release()
		if got := pool.Stats().PagesInUse; got != 5*blocks {
			t.Fatalf("kv%d: %d pages in use after the swap, want %d", kvBits, got, 5*blocks)
		}

		want, err := keeper.Step(prompt[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := second.Step(prompt[0])
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want.Row(0) {
			if got.Row(0)[i] != w {
				t.Fatalf("kv%d: logit %d after the swap = %v, want %v", kvBits, i, got.Row(0)[i], w)
			}
		}

		first.Reset()
		second.Reset()
		keeper.Reset()
		if got := pool.Stats().PagesInUse; got != 0 {
			t.Fatalf("kv%d: %d pages leaked", kvBits, got)
		}
	}
}

// TestReplacePagesValidation: the span must cover consumed, page-aligned
// rows of the session's own pool.
func TestReplacePagesValidation(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	pool, donor, short := pooledPair(m, 0)
	rows := pool.Rows()
	if _, err := donor.Prefill(pagePrompt(rows+1, m.Cfg.Vocab)); err != nil {
		t.Fatal(err)
	}
	if _, err := short.Prefill(pagePrompt(rows-1, m.Cfg.Vocab)); err != nil {
		t.Fatal(err)
	}
	span := donor.SharePages(0, rows)
	defer span.Release()
	_, foreign, _ := pooledPair(m, 0)
	if _, err := foreign.Prefill(pagePrompt(rows+1, m.Cfg.Vocab)); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Session{"rows not consumed yet": short, "another pool": foreign} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ReplacePages did not panic", name)
				}
			}()
			s.ReplacePages(span)
		}()
	}
}
