package infer

import (
	"testing"

	"repro/internal/model"
)

// pageBytes is the resident size of one KV page (keys plus values) for
// the given config — PageRows rows, clamped to MaxSeq.
func pageBytes(cfg model.Config) int {
	rows := PageRows
	if cfg.MaxSeq < rows {
		rows = cfg.MaxSeq
	}
	return 2 * rows * cfg.Dim * 8
}

// TestKVCacheLazyAllocation is the memory-footprint assertion for the
// paged KV cache: a fresh session holds no KV memory at all, and after k
// steps it holds exactly ceil(k/PageRows) pages per block — not the eager
// MaxSeq x Dim x 2 x blocks allocation a pool of warm scheduler slots
// would multiply.
func TestKVCacheLazyAllocation(t *testing.T) {
	cfg := model.Nano7B() // MaxSeq 64 >> PageRows, so laziness is visible
	m := model.New(cfg, 1)
	s := NewSession(m)
	if got := s.KVCacheBytes(); got != 0 {
		t.Fatalf("fresh session holds %d KV bytes, want 0", got)
	}
	eager := cfg.Layers * 2 * cfg.MaxSeq * cfg.Dim * 8
	for step := 1; step <= 2*PageRows; step++ {
		if _, err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		pages := (step + PageRows - 1) / PageRows
		want := cfg.Layers * pages * pageBytes(cfg)
		if got := s.KVCacheBytes(); got != want {
			t.Fatalf("after %d steps: %d KV bytes, want %d", step, got, want)
		}
		if got := s.Pool().Stats().UniqueBytes; got != int64(want) {
			t.Fatalf("after %d steps: pool reports %d unique bytes, session %d — a private pool should agree", step, got, want)
		}
	}
	if got := s.KVCacheBytes(); got >= eager {
		t.Fatalf("short sequence resident KV %d bytes not below eager %d", got, eager)
	}
}

// TestKVCacheResetRecyclesPagesAndMatchesFresh: a recycled slot (Reset
// after a long sequence) returns its pages to the pool free list — its
// own logical footprint drops to zero, the pool allocates nothing new for
// the next sequence — yet decodes bit-identically to a brand-new session.
func TestKVCacheResetRecyclesPagesAndMatchesFresh(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	s := NewSession(m)
	for i := 0; i < PageRows+3; i++ {
		if _, err := s.Step(1 + i%7); err != nil {
			t.Fatal(err)
		}
	}
	warm := s.Pool().Stats()
	if warm.PagesInUse == 0 {
		t.Fatal("warm session references no pages")
	}
	s.Reset()
	after := s.Pool().Stats()
	if after.PagesInUse != 0 {
		t.Fatalf("Reset leaked %d pages still in use", after.PagesInUse)
	}
	if after.FreePages != warm.PagesInUse {
		t.Fatalf("Reset parked %d pages on the free list, want %d", after.FreePages, warm.PagesInUse)
	}
	if got := s.KVCacheBytes(); got != 0 {
		t.Fatalf("session reports %d logical KV bytes after Reset, want 0", got)
	}
	created := s.Pool().Stats().PagesInUse + s.Pool().Stats().FreePages
	fresh := NewSession(m)
	for _, tok := range []int{3, 1, 4, 1, 5} {
		a, err := s.Step(tok)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Step(tok)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b, 0) {
			t.Fatalf("recycled session diverged from fresh session at token %d", tok)
		}
	}
	st := s.Pool().Stats()
	if st.PagesInUse+st.FreePages != created {
		t.Fatalf("regrowth allocated new pages (%d -> %d): free list not recycled",
			created, st.PagesInUse+st.FreePages)
	}
}

// mustReserve makes row c.len writable — what a forward's admit does before
// it appends.
func mustReserve(t *testing.T, c *kvCache) {
	t.Helper()
	if err := c.reserve(1); err != nil {
		t.Fatal(err)
	}
}

// TestKVCacheRowStability: growing the cache past a page boundary must
// not move rows already handed out — referenced pages are never
// reallocated — so attention's in-flight row views stay valid.
func TestKVCacheRowStability(t *testing.T) {
	c := newKVCache(NewPagePool(8, 64))
	mustReserve(t, c)
	row0 := c.kRow(0)
	row0[0] = 42
	c.len = 1
	for c.len < 3*c.rows { // cross two page boundaries
		mustReserve(t, c)
		copy(c.kRow(c.len), make([]float64, c.dim))
		c.len++
	}
	if &row0[0] != &c.kRow(0)[0] {
		t.Fatal("row 0 moved when the cache grew")
	}
	if c.kRow(0)[0] != 42 {
		t.Fatal("row 0 content lost when the cache grew")
	}
}

// TestKVCacheTinyMaxSeq: a config whose MaxSeq is below PageRows clamps
// the page so no memory beyond MaxSeq rows is ever allocated.
func TestKVCacheTinyMaxSeq(t *testing.T) {
	c := newKVCache(NewPagePool(8, 4))
	if c.rows != 4 {
		t.Fatalf("page rows = %d, want clamped to MaxSeq 4", c.rows)
	}
	for i := 0; i < 4; i++ {
		mustReserve(t, c)
		c.len++
	}
	if got, want := c.bytes(), 2*4*8*8; got != want {
		t.Fatalf("bytes = %d, want %d", got, want)
	}
}

// TestKVCacheCopyOnWriteTail: writing into a tail page that is still
// shared with another holder must copy the owned rows into a fresh
// exclusive page first, leaving the shared page's bytes untouched.
func TestKVCacheCopyOnWriteTail(t *testing.T) {
	pool := NewPagePool(4, 64)
	c := newKVCache(pool)
	for i := 0; i < c.rows; i++ {
		mustReserve(t, c)
		c.kRow(c.len)[0] = float64(i)
		c.vRow(c.len)[0] = float64(-i)
		c.len++
	}
	shared := c.pages[0]
	pool.retain(shared) // a second holder, as a prefix-cache entry would be

	// Roll back into the shared page and overwrite its last row: the
	// cache must copy, not mutate the shared bytes.
	c.truncate(c.rows - 1)
	mustReserve(t, c)
	if c.pages[0] == shared {
		t.Fatal("reserve left a shared page in the write range instead of copying")
	}
	c.kRow(c.len)[0] = 99
	c.len++
	if got := shared.k.Row(c.rows - 1)[0]; got != float64(c.rows-1) {
		t.Fatalf("shared page mutated: row %d = %v", c.rows-1, got)
	}
	for r := 0; r < c.rows-1; r++ {
		if c.kRow(r)[0] != float64(r) || c.vRow(r)[0] != float64(-r) {
			t.Fatalf("COW lost row %d: k=%v v=%v", r, c.kRow(r)[0], c.vRow(r)[0])
		}
	}
	if got := c.kRow(c.rows - 1)[0]; got != 99 {
		t.Fatalf("rewritten row = %v, want 99", got)
	}
	pool.release(shared)
	c.releaseAll()
	if st := pool.Stats(); st.PagesInUse != 0 {
		t.Fatalf("%d pages leaked after release", st.PagesInUse)
	}
}

// TestKVCacheExclusiveTailSkipsCopy: rolling back and regrowing a page no
// one else references must reuse the page in place — COW only triggers
// when the tail is actually shared.
func TestKVCacheExclusiveTailSkipsCopy(t *testing.T) {
	pool := NewPagePool(4, 64)
	c := newKVCache(pool)
	for i := 0; i < 3; i++ {
		mustReserve(t, c)
		c.len++
	}
	tail := c.pages[0]
	c.truncate(1)
	mustReserve(t, c)
	if c.pages[0] != tail {
		t.Fatal("reserve copied an exclusively owned tail page")
	}
}
