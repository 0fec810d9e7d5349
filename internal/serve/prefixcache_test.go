package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/prefixkey"
)

// cacheTestPool builds a pool with 4-row pages so the cache unit tests
// stay small (the scheduler uses infer.PageRows; the cache logic is
// granularity-agnostic).
func cacheTestPool(m *model.Model) *infer.KVPagePool {
	return infer.NewPagePool(m.Cfg.Dim, 4)
}

// cacheTestSpan builds a real page span for prefix[lo:hi] by prefilling a
// throwaway session over pool. The session is reset afterwards: the span
// holds its own page references, so the pages survive the recycle.
func cacheTestSpan(t *testing.T, pool *infer.KVPagePool, m *model.Model, prefix []int, lo, hi int) *infer.PageSpan {
	t.Helper()
	sess := infer.NewSessionPooled(m.View(), pool, 0)
	if _, err := sess.Prefill(prefix[:hi]); err != nil {
		t.Fatal(err)
	}
	ps := sess.SharePages(lo, hi)
	sess.Reset()
	return ps
}

// contains reports whether the exact prefix is cached.
func (pc *prefixCache) contains(prefix []int) bool {
	sp := pc.share(prefix)
	if sp != nil {
		sp.Release()
	}
	return sp != nil
}

// releaseAll drops the caller-side references a lookup returned.
func releaseAll(spans []*infer.PageSpan) {
	for _, sp := range spans {
		sp.Release()
	}
}

// TestPrefixCacheLookupGranularity: lookups match whole cached pages in
// prefix order, stop at the first uncached page, honor the limit (at
// least one token is always left to prefill), and verify tokens — a
// prompt differing inside a page misses even when hashes were primed
// with a sibling.
func TestPrefixCacheLookupGranularity(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	pool := cacheTestPool(m)
	prompt := []int{5, 6, 7, 8, 9, 10, 11, 12, 13}
	pc := newPrefixCache(4, 1<<20)
	pc.insert(prompt[:4], cacheTestSpan(t, pool, m, prompt, 0, 4))
	pc.insert(prompt[:8], cacheTestSpan(t, pool, m, prompt, 4, 8))

	spans, matched := pc.lookup(prompt, len(prompt)-1)
	if matched != 8 || len(spans) != 2 {
		t.Fatalf("matched %d tokens over %d spans, want 8 over 2", matched, len(spans))
	}
	if spans[0].Start != 0 || spans[0].End != 4 || spans[1].Start != 4 || spans[1].End != 8 {
		t.Fatalf("span ranges [%d,%d) [%d,%d)", spans[0].Start, spans[0].End, spans[1].Start, spans[1].End)
	}
	releaseAll(spans)

	// A prompt of exactly 8 tokens may adopt at most 7: the final token's
	// logits must be computed, so only the first page matches.
	spans, matched = pc.lookup(prompt[:8], 7)
	if matched != 4 {
		t.Fatalf("limit 7 matched %d tokens, want 4", matched)
	}
	releaseAll(spans)

	// Same first page, different second page: only the shared part hits.
	diverged := append(append([]int(nil), prompt[:4]...), 30, 31, 30, 31, 30)
	spans, matched = pc.lookup(diverged, len(diverged)-1)
	if matched != 4 {
		t.Fatalf("diverged prompt matched %d tokens, want 4", matched)
	}
	releaseAll(spans)

	// A prompt shorter than one page never matches and counts as a miss.
	spans, matched = pc.lookup(prompt[:3], 2)
	if matched != 0 {
		t.Fatalf("short prompt matched %d tokens", matched)
	}
	releaseAll(spans)

	st := pc.snapshot()
	if st.Hits != 3 || st.Misses != 1 || st.HitTokens != 16 {
		t.Fatalf("stats hits=%d misses=%d hitTokens=%d, want 3/1/16", st.Hits, st.Misses, st.HitTokens)
	}
	if st.Entries != 2 || st.Bytes <= 0 {
		t.Fatalf("stats entries=%d bytes=%d", st.Entries, st.Bytes)
	}

	// Cache entries are the only remaining holders; purging must return
	// every page to the pool (the refcount-leak invariant).
	pc.purge()
	if ps := pool.Stats(); ps.PagesInUse != 0 {
		t.Fatalf("%d pages still in use after purge", ps.PagesInUse)
	}
}

// TestPrefixCacheEvictionLRUAndRefcounts: inserts past the byte budget
// evict least-recently-used entries; eviction only drops the cache's page
// references, so spans handed to an in-flight attach stay valid — the
// page refcount is the pin — and the pages free only when the last holder
// releases.
func TestPrefixCacheEvictionLRUAndRefcounts(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	pool := cacheTestPool(m)
	mkPrompt := func(seed int) []int {
		p := make([]int, 8)
		for i := range p {
			p[i] = 1 + (seed+i)%(m.Cfg.Vocab-1)
		}
		return p
	}
	one := cacheTestSpan(t, pool, m, mkPrompt(0), 0, 4)
	perEntry := one.Bytes() + 4*8
	one.Release()
	pc := newPrefixCache(4, 2*perEntry) // room for two entries

	a, b, c := mkPrompt(0), mkPrompt(5), mkPrompt(11)
	pc.insert(a[:4], cacheTestSpan(t, pool, m, a, 0, 4))
	pc.insert(b[:4], cacheTestSpan(t, pool, m, b, 0, 4))
	// Touch a so b is the LRU tail, then overflow with c.
	spans, matched := pc.lookup(a, len(a)-1)
	if matched != 4 {
		t.Fatalf("warm lookup matched %d", matched)
	}
	releaseAll(spans)
	pc.insert(c[:4], cacheTestSpan(t, pool, m, c, 0, 4))

	st := pc.snapshot()
	if st.Entries != 2 || st.Evictions != 1 || st.Bytes > 2*perEntry {
		t.Fatalf("after overflow: entries=%d evictions=%d bytes=%d budget=%d",
			st.Entries, st.Evictions, st.Bytes, 2*perEntry)
	}
	if spans, mB := pc.lookup(b, len(b)-1); mB != 0 {
		t.Fatal("LRU entry b survived eviction")
	} else {
		releaseAll(spans)
	}
	for _, keep := range [][]int{a, c} {
		if spans, mk := pc.lookup(keep, len(keep)-1); mk != 4 {
			t.Fatalf("recently used entry evicted (matched %d)", mk)
		} else {
			releaseAll(spans)
		}
	}

	// Hold a's span as an in-flight attach would, then evict a under
	// pressure: the entry may go, but the held span's pages must survive
	// until the holder releases them.
	heldSpans, mA := pc.lookup(a, len(a)-1)
	if mA != 4 {
		t.Fatal("a not cached before pressure")
	}
	d, e := mkPrompt(17), mkPrompt(23)
	pc.insert(d[:4], cacheTestSpan(t, pool, m, d, 0, 4))
	pc.insert(e[:4], cacheTestSpan(t, pool, m, e, 0, 4))
	if st := pc.snapshot(); st.Bytes > 2*perEntry {
		t.Fatalf("pressure exceeded the byte budget: bytes=%d budget=%d", st.Bytes, 2*perEntry)
	}
	// The held pages are alive regardless of what eviction did to the
	// entry: in-use pages must cover at least the held span.
	if got := pool.Stats().PagesInUse; got < int64(heldSpans[0].Pages()) {
		t.Fatalf("held span's pages freed under eviction pressure (in use: %d)", got)
	}
	releaseAll(heldSpans)

	// After purging the cache nothing holds pages: the pool must drain.
	pc.purge()
	if ps := pool.Stats(); ps.PagesInUse != 0 {
		t.Fatalf("%d pages leaked after purge", ps.PagesInUse)
	}

	// A span wider than the whole budget is never admitted, and insert
	// releases it — no leak.
	tiny := newPrefixCache(4, 1)
	tiny.insert(a[:4], cacheTestSpan(t, pool, m, a, 0, 4))
	if st := tiny.snapshot(); st.Entries != 0 {
		t.Fatalf("over-budget span admitted (%d entries)", st.Entries)
	}
	if ps := pool.Stats(); ps.PagesInUse != 0 {
		t.Fatalf("over-budget insert leaked %d pages", ps.PagesInUse)
	}
}

// prefixRequests builds a workload where every request shares one of two
// page-sized (infer.PageRows-token) system-prompt prefixes, followed by a
// per-request tail. Prompt plus generation stays within Tiny's MaxSeq.
func prefixRequests(vocab, n int) []Request {
	sysA := make([]int, infer.PageRows)
	sysB := make([]int, infer.PageRows)
	for i := range sysA {
		sysA[i] = 1 + i%7
		sysB[i] = 9 + i%4
	}
	rng := rand.New(rand.NewSource(23))
	reqs := make([]Request, n)
	for i := range reqs {
		sys := sysA
		if i%3 == 2 {
			sys = sysB
		}
		prompt := append([]int(nil), sys...)
		for j := 0; j < 1+rng.Intn(4); j++ {
			prompt = append(prompt, rng.Intn(vocab))
		}
		temp := 0.9
		if i%4 == 0 {
			temp = 0
		}
		reqs[i] = Request{
			ID:          fmt.Sprintf("px-%d", i),
			Prompt:      prompt,
			MaxTokens:   1 + (i*3)%7,
			Temperature: temp,
			Seed:        int64(300 + i),
		}
	}
	return reqs
}

func assertSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.ID != want.ID || got.FinishReason != want.FinishReason || len(got.Tokens) != len(want.Tokens) {
		t.Fatalf("%s: got (%s,%s,%d tokens), want (%s,%s,%d tokens)",
			label, got.ID, got.FinishReason, len(got.Tokens), want.ID, want.FinishReason, len(want.Tokens))
	}
	for j := range want.Tokens {
		if got.Tokens[j] != want.Tokens[j] {
			t.Fatalf("%s: token %d = %d, want %d", label, j, got.Tokens[j], want.Tokens[j])
		}
	}
}

// TestSchedulerPrefixCacheBitIdentical is the end-to-end hit/miss
// bit-identity contract: with the prefix cache on, every request —
// including the second pass, where every shared prefix hits — matches the
// cache-less Sequential reference at every worker count, and the second
// pass produces byte-identical results to the first.
func TestSchedulerPrefixCacheBitIdentical(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	reqs := prefixRequests(m.Cfg.Vocab, 10)
	seqOpts := DefaultOptions()
	want := make([]Result, len(reqs))
	for i, r := range reqs {
		want[i] = Sequential(m, r, seqOpts)
	}
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		opts := DefaultOptions()
		opts.Slots = 3
		opts.PrefillChunk = 4
		opts.PrefixCacheBytes = 1 << 20
		s := New(m, opts)
		first, err := s.GenerateAll(reqs)
		if err != nil {
			s.Close()
			parallel.SetWorkers(0)
			t.Fatal(err)
		}
		second, err := s.GenerateAll(reqs)
		st := s.Stats()
		s.Close()
		parallel.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			assertSameResult(t, fmt.Sprintf("workers=%d first pass req %d", workers, i), first[i], want[i])
			assertSameResult(t, fmt.Sprintf("workers=%d second pass req %d", workers, i), second[i], want[i])
		}
		if st.PrefixCacheHits == 0 || st.PrefixCacheHitTokens == 0 {
			t.Fatalf("workers=%d: no cache hits recorded (%+v)", workers, st)
		}
		if st.PrefixCacheBytes <= 0 || st.PrefixCacheEntries <= 0 {
			t.Fatalf("workers=%d: cache reports no residency (%+v)", workers, st)
		}
		if hr := st.PrefixCacheHitRate(); hr <= 0 || hr > 1 {
			t.Fatalf("workers=%d: hit rate %v", workers, hr)
		}
	}
}

// TestSchedulerPrefixCacheKVQuant: the identity holds with a quantized KV
// cache too (pages carry the quantized rows).
func TestSchedulerPrefixCacheKVQuant(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	reqs := prefixRequests(m.Cfg.Vocab, 6)
	opts := DefaultOptions()
	opts.Slots = 2
	opts.PrefillChunk = 4
	opts.KVQuantBits = 4
	opts.PrefixCacheBytes = 1 << 20
	s := New(m, opts)
	defer s.Close()
	if _, err := s.GenerateAll(reqs); err != nil { // prime the cache
		t.Fatal(err)
	}
	got, err := s.GenerateAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		assertSameResult(t, fmt.Sprintf("req %d", i), got[i], Sequential(m, r, opts))
	}
	if st := s.Stats(); st.PrefixCacheHits == 0 {
		t.Fatalf("no hits on the warmed cache (%+v)", st)
	}
}

// TestSchedulerPrefixCacheEvictionPressure: a budget that holds only a
// couple of pages keeps evicting mid-traffic; results stay correct and
// the residency never exceeds the budget (eviction is always safe — live
// slots hold their own page references).
func TestSchedulerPrefixCacheEvictionPressure(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	reqs := prefixRequests(m.Cfg.Vocab, 12)
	opts := DefaultOptions()
	opts.Slots = 3
	opts.PrefillChunk = 4
	// One page costs blocks * 2 * PageRows * dim * 8 bytes plus key
	// overhead; budget exactly one entry, so the workload's two distinct
	// prefix pages keep evicting each other.
	pageBytes := int64(len(m.Blocks) * 2 * infer.PageRows * m.Cfg.Dim * 8)
	opts.PrefixCacheBytes = pageBytes + 512
	s := New(m, opts)
	defer s.Close()
	want := make([]Result, len(reqs))
	for i, r := range reqs {
		want[i] = Sequential(m, r, DefaultOptions())
	}
	for pass := 0; pass < 3; pass++ {
		got, err := s.GenerateAll(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			assertSameResult(t, fmt.Sprintf("pass %d req %d", pass, i), got[i], want[i])
		}
	}
	st := s.Stats()
	if st.PrefixCacheEvictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget (%+v)", opts.PrefixCacheBytes, st)
	}
	if st.PrefixCacheBytes > opts.PrefixCacheBytes {
		t.Fatalf("resident %d bytes exceeds budget %d", st.PrefixCacheBytes, opts.PrefixCacheBytes)
	}
}

// TestSchedulerKVAccountingAndPageRelease: unique KV bytes count shared
// pages once (logical > unique under shared-prefix traffic), and after
// Drain + Close every page reference — slots and prefix-cache entries —
// returns to the pool: the refcount-leak invariant.
func TestSchedulerKVAccountingAndPageRelease(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	reqs := prefixRequests(m.Cfg.Vocab, 12)
	opts := DefaultOptions()
	opts.Slots = 4
	opts.PrefixCacheBytes = 1 << 20
	s := New(m, opts)
	if _, err := s.GenerateAll(reqs); err != nil { // prime the cache
		s.Close()
		t.Fatal(err)
	}
	if _, err := s.GenerateAll(reqs); err != nil { // hit it
		s.Close()
		t.Fatal(err)
	}
	st := s.Stats()
	if st.KVUniqueBytes <= 0 || st.KVPages <= 0 {
		t.Fatalf("no unique KV residency reported: %+v", st)
	}
	if st.KVLogicalBytes <= st.KVUniqueBytes {
		t.Fatalf("shared-prefix traffic shows no sharing: logical %d <= unique %d",
			st.KVLogicalBytes, st.KVUniqueBytes)
	}
	if r := st.KVSharingRatio(); r <= 1 {
		t.Fatalf("sharing ratio %v, want > 1", r)
	}
	if st.KVUniqueBytes != st.KVPages*s.pool.PageBytes() {
		t.Fatalf("unique bytes %d != %d pages x %d page bytes",
			st.KVUniqueBytes, st.KVPages, s.pool.PageBytes())
	}
	s.Drain()
	s.Close()
	if ps := s.pool.Stats(); ps.PagesInUse != 0 {
		t.Fatalf("%d pages still referenced after Close — refcount leak", ps.PagesInUse)
	}
}

// TestSlotDropsDuplicatePrefixPage: two requests with the same cold prefix
// admitted side by side both miss the cache and both prefill the prefix.
// The slot that commits second finds the page published, drops its own
// copy for it, and still produces its sequential reference — so the pool
// holds the prefix once, not once per racing slot until their next
// admissions.
func TestSlotDropsDuplicatePrefixPage(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	reqs := prefixRequests(m.Cfg.Vocab, 2) // both on sysA
	pool := infer.NewPagePool(m.Cfg.Dim, m.Cfg.MaxSeq)
	cache := newPrefixCache(pool.Rows(), 1<<20)
	live := make([]*slot, len(reqs))
	for i, r := range reqs {
		live[i] = newSlot(infer.NewSessionPooled(m.View(), pool, 0), m.Cfg.MaxSeq, infer.PageRows, cache)
		live[i].start(r, nil, time.Now(), nil)
	}
	tk := newTick(len(live))
	tk.run(live, -1) // one tick: each slot prefills the shared page
	blocks := int64(len(m.Blocks))
	if got := pool.Stats().PagesInUse; got != blocks {
		t.Fatalf("%d pages in use after both slots prefilled the shared page, want %d (one copy)", got, blocks)
	}
	if st := cache.snapshot(); st.Entries != 1 || st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("cache after the race: %+v, want 1 entry from 2 misses", st)
	}
	for !live[0].done || !live[1].done {
		tk.run(live, -1)
	}
	for i, r := range reqs {
		assertSameResult(t, r.ID, live[i].result(), Sequential(m, r, DefaultOptions()))
	}
	for _, sl := range live {
		sl.sess.Reset()
	}
	cache.purge()
	if got := pool.Stats().PagesInUse; got != 0 {
		t.Fatalf("%d pages leaked", got)
	}
}

// TestSchedulerPrefixCacheEvictionRace: concurrent submitters against a
// one-entry cache budget force attach, decode and eviction to race on the
// page pool; under -race this is the COW/refcount synchronization stress,
// and every result must still match its sequential reference. The pool
// must drain after Close.
func TestSchedulerPrefixCacheEvictionRace(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	reqs := prefixRequests(m.Cfg.Vocab, 24)
	want := make([]Result, len(reqs))
	var refWG sync.WaitGroup
	for i, r := range reqs {
		refWG.Add(1)
		go func(i int, r Request) {
			defer refWG.Done()
			want[i] = Sequential(m, r, DefaultOptions())
		}(i, r)
	}
	refWG.Wait()
	opts := DefaultOptions()
	opts.Slots = 4
	opts.PrefillChunk = 4
	// Room for one entry: the two shared prefixes keep evicting each other
	// while slots still hold the evicted entries' pages.
	opts.PrefixCacheBytes = int64(len(m.Blocks)*2*infer.PageRows*m.Cfg.Dim*8) + 512
	s := New(m, opts)
	results := make([]Result, len(reqs))
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += 6 {
				ticket, err := s.Submit(reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = ticket.Wait()
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	s.Close()
	for i := range want {
		assertSameResult(t, fmt.Sprintf("req %d", i), results[i], want[i])
	}
	if st.PrefixCacheEvictions == 0 {
		t.Fatalf("no evictions under the one-entry budget (%+v)", st)
	}
	if ps := s.pool.Stats(); ps.PagesInUse != 0 {
		t.Fatalf("%d pages leaked through the eviction race", ps.PagesInUse)
	}
}

// TestSchedulerPrefixCacheConcurrentAdmissions hammers a cached scheduler
// from concurrent submitters (mid-flight admissions, shared prefixes,
// inserts racing lookups); under -race this exercises the attach/detach
// synchronization, and every result must still match its sequential
// reference.
func TestSchedulerPrefixCacheConcurrentAdmissions(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	reqs := prefixRequests(m.Cfg.Vocab, 16)
	want := make([]Result, len(reqs))
	var refWG sync.WaitGroup
	for i, r := range reqs {
		refWG.Add(1)
		go func(i int, r Request) {
			defer refWG.Done()
			want[i] = Sequential(m, r, DefaultOptions())
		}(i, r)
	}
	refWG.Wait()
	opts := DefaultOptions()
	opts.Slots = 3
	opts.PrefillChunk = 4
	opts.PrefixCacheBytes = 1 << 18
	s := New(m, opts)
	defer s.Close()
	results := make([]Result, len(reqs))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += 4 {
				ticket, err := s.Submit(reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = ticket.Wait()
			}
		}(g)
	}
	wg.Wait()
	for i := range want {
		assertSameResult(t, fmt.Sprintf("req %d", i), results[i], want[i])
	}
}

// TestPrefixCacheHashCollisionIsMiss: a forged entry occupying the probe
// prefix's hash bucket with *different* tokens must never match — the
// token-equality guard in find turns hash collisions into misses, never
// wrong prefills. The forged entry carries a nil span, so a guard
// regression fails loudly (nil-span Retain) instead of silently serving
// the wrong KV pages.
func TestPrefixCacheHashCollisionIsMiss(t *testing.T) {
	pc := newPrefixCache(4, 1<<20)
	probe := []int{1, 2, 3, 4, 5}
	imposter := []int{9, 9, 9, 9}
	h := prefixkey.Hash(probe[:4])
	pc.entries[h] = append(pc.entries[h], &prefixEntry{prefix: imposter})

	spans, matched := pc.lookup(probe, len(probe)-1)
	if matched != 0 || len(spans) != 0 {
		t.Fatalf("collision matched %d tokens over %d spans, want 0", matched, len(spans))
	}
	if pc.contains(probe[:4]) {
		t.Fatal("contains matched a colliding entry with different tokens")
	}
	if st := pc.snapshot(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("collision counted as a hit: %+v", st)
	}
}
