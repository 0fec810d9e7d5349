// Prefix/KV cache: the scheduler-level store that eliminates repeated
// prefill work for shared prompt prefixes (system prompts, few-shot
// headers — the steady-state cost of real serving traffic). The cache
// holds refcounted page references (infer.PageSpan) at the page pool's
// row granularity: entry k of a prompt covers token positions [k*rows,
// (k+1)*rows) and is keyed by the *entire* prefix up to its end, so two
// prompts share cached pages exactly as far as their tokens agree. A
// request whose prompt starts with cached pages adopts them by reference
// (a refcount bump per page — no memcpy, no extra resident bytes) instead
// of recomputing the prefill, which collapses both time-to-first-token
// and resident KV on repeat prefixes while remaining bit-identical to a
// cold prefill — prefill is deterministic and KV rows are
// position-addressed, so adopted bytes equal recomputed bytes (pinned by
// the prefix-cache tests at the scheduler level, with ExportKV/ImportKV
// as the memcpy oracle).
//
// Eviction is least-recently-used by a byte budget over the cache's
// logical bytes. Dropping an entry only releases the *cache's* page
// references: pages still referenced by a live slot stay resident until
// that slot resets (the page refcount is the pin — there is no separate
// entry pinning to get wrong), so eviction can never free bytes out from
// under an attached sequence. Keys store the full prefix tokens, not just
// a hash: lookups verify token equality, so a hash collision costs a
// miss, never a wrong prefill.
package serve

import (
	"slices"
	"sync"

	"repro/internal/infer"
	"repro/internal/prefixkey"
)

// prefixEntry is one cached page of a prompt prefix. The entry holds its
// own page references (taken at insert, dropped at eviction).
type prefixEntry struct {
	prefix []int // full token prefix [0, span.End) — collision guard
	span   *infer.PageSpan
	bytes  int64

	// LRU list links (most recent at head).
	prev, next *prefixEntry
}

// prefixCacheStats is the counter snapshot the scheduler folds into Stats.
type prefixCacheStats struct {
	// Hits / Misses count lookups (a lookup matching >= 1 page is a hit).
	Hits, Misses int64
	// HitTokens counts prompt tokens whose prefill was skipped.
	HitTokens int64
	// Evictions counts entries dropped under byte pressure.
	Evictions int64
	// Bytes / Entries describe the current residency. Bytes is logical:
	// what the cached pages would occupy if private. Pages shared with
	// live slots are counted once in the pool's unique bytes.
	Bytes   int64
	Entries int
}

// prefixCache is a byte-budgeted LRU of KV page references keyed by token
// prefix. Safe for concurrent use (slot workers insert mid-prefill while
// the scheduler loop looks up admissions).
type prefixCache struct {
	rows   int   // token granularity of cached spans: the pool's page rows
	budget int64 // byte budget; inserts evict LRU entries past it

	mu         sync.Mutex
	entries    map[uint64][]*prefixEntry // hash of full prefix -> entries (collision list)
	head, tail *prefixEntry              // LRU list, head = most recent
	stats      prefixCacheStats
}

func newPrefixCache(rows int, budget int64) *prefixCache {
	return &prefixCache{rows: rows, budget: budget, entries: make(map[uint64][]*prefixEntry)}
}

// The prefix hash is the shared internal/prefixkey FNV-1a: the router's
// consistent-hash ring keys on the very same function over the very same
// page-aligned spans, which is what lets prefix-affinity routing land a
// request on the replica whose cache already holds its pages. Consecutive
// prefix hashes — prompt[:rows], prompt[:2*rows], ... — are computed
// incrementally with prefixkey.Extend instead of rehashing from the start
// (lookup walks the pages of one prompt this way, keeping admission
// linear in the prompt).

// unlink removes e from the LRU list. Caller holds mu.
func (pc *prefixCache) unlink(e *prefixEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		pc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		pc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront links a currently unlinked entry at the head of the LRU
// list. Caller holds mu.
func (pc *prefixCache) pushFront(e *prefixEntry) {
	e.next = pc.head
	if pc.head != nil {
		pc.head.prev = e
	}
	pc.head = e
	if pc.tail == nil {
		pc.tail = e
	}
}

// touch moves an already linked entry to the head of the LRU list.
// Caller holds mu.
func (pc *prefixCache) touch(e *prefixEntry) {
	if pc.head == e {
		return
	}
	pc.unlink(e)
	pc.pushFront(e)
}

// find returns the entry whose full prefix equals tokens (h =
// prefixkey.Hash(tokens), precomputed by callers that carry it
// incrementally), or nil. Caller holds mu.
func (pc *prefixCache) find(h uint64, tokens []int) *prefixEntry {
	for _, e := range pc.entries[h] {
		if slices.Equal(e.prefix, tokens) { //aptq:ignore noalloc slices.Equal is allocation-free; no stdlib facts are exported for package slices
			return e
		}
	}
	return nil
}

// lookup returns the page spans of the longest run of cached pages that
// prefix the prompt, covering at most limit tokens (the caller passes
// len(prompt)-1 so at least one token is always left to prefill — the
// logits of the last prompt token must be computed, not remembered). Each
// returned span is retained on the caller's behalf — the pages cannot be
// freed even if the entries are evicted mid-attach — and the caller must
// Release every span once adopted. A lookup matching at least one page
// counts as a hit, anything else as a miss.
func (pc *prefixCache) lookup(prompt []int, limit int) (spans []*infer.PageSpan, matched int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	h := prefixkey.Offset
	for (matched+1)*pc.rows <= limit {
		h = prefixkey.Extend(h, prompt[matched*pc.rows:(matched+1)*pc.rows])
		e := pc.find(h, prompt[:(matched+1)*pc.rows])
		if e == nil {
			break
		}
		e.span.Retain()
		pc.touch(e)
		spans = append(spans, e.span)
		matched++
	}
	matched *= pc.rows
	if matched > 0 {
		pc.stats.Hits++
		pc.stats.HitTokens += int64(matched)
	} else {
		pc.stats.Misses++
	}
	return spans, matched
}

// share returns the cached page whose full prefix is prefix, retained on
// the caller's behalf (Release it after use), or nil when the prefix is not
// cached. It is what a slot about to publish a page asks first: a non-nil
// answer means another request published the same page while this one was
// computing it. It counts as neither a hit nor a miss and leaves the LRU
// order alone — the caller did the prefill work regardless.
func (pc *prefixCache) share(prefix []int) *infer.PageSpan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e := pc.find(prefixkey.Hash(prefix), prefix)
	if e == nil {
		return nil
	}
	e.span.Retain()
	return e.span
}

// insert stores span as the cached page whose full prefix is prefix
// (len(prefix) == span.End). The cache takes ownership of the span's page
// references: they are dropped when the entry is evicted (or immediately,
// when the prefix is already cached — the first snapshot wins; both are
// byte-identical by determinism — or the span alone exceeds the whole
// budget). Inserting evicts least-recently-used entries until the budget
// holds; eviction is always safe because any slot still using the pages
// holds its own references.
func (pc *prefixCache) insert(prefix []int, span *infer.PageSpan) {
	bytes := span.Bytes() + int64(len(prefix))*8
	if bytes > pc.budget {
		span.Release()
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	h := prefixkey.Hash(prefix)
	if pc.find(h, prefix) != nil {
		span.Release()
		return
	}
	e := &prefixEntry{prefix: append([]int(nil), prefix...), span: span, bytes: bytes}
	pc.entries[h] = append(pc.entries[h], e)
	pc.stats.Bytes += bytes
	pc.stats.Entries++
	pc.pushFront(e)
	pc.evictLocked()
}

// removeLocked unlinks victim from the LRU list and the hash map and
// releases its page references. Caller holds mu.
func (pc *prefixCache) removeLocked(victim *prefixEntry) {
	pc.unlink(victim)
	h := prefixkey.Hash(victim.prefix)
	list := pc.entries[h]
	for i, le := range list {
		if le == victim {
			pc.entries[h] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(pc.entries[h]) == 0 {
		delete(pc.entries, h)
	}
	victim.span.Release()
	pc.stats.Bytes -= victim.bytes
	pc.stats.Entries--
	pc.stats.Evictions++
}

// evictLocked drops LRU-tail entries until the budget holds, releasing
// each victim's page references. Caller holds mu.
func (pc *prefixCache) evictLocked() {
	for pc.tail != nil && pc.stats.Bytes > pc.budget {
		pc.removeLocked(pc.tail)
	}
}

// reclaimOne is the page pool's sacrificial-tier hook (registered via
// infer.KVPagePool.SetReclaimer): under budget pressure it evicts the
// least-recently-used entry whose pages nothing else references — evicting
// a pinned entry would free no memory — and reports whether it freed one.
// A false return tells the pool the cache has nothing left to give, so the
// lease fails and the scheduler escalates to preemption. Called without
// the pool lock held (release routes back into the pool), and safe against
// concurrent slot inserts: both take pc.mu before any pool-lock work, the
// repo-wide lock order.
func (pc *prefixCache) reclaimOne() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for e := pc.tail; e != nil; e = e.prev {
		if e.span.SoleHolder() {
			pc.removeLocked(e)
			return true
		}
	}
	return false
}

// reclaimableBytes reports the page bytes admission may count as
// evictable headroom: entries whose pages nothing else references.
// Pinned entries — pages adopted by a live slot — would free nothing if
// evicted, so counting them overstates headroom; under sustained
// pressure that phantom headroom re-admits every preempted request into
// a still-full pool and the scheduler thrashes preemption instead of
// deferring. Sole-holdership reads the pages' atomic refcounts, so no
// pool lock is needed (lock order: pc.mu before any pool work).
func (pc *prefixCache) reclaimableBytes() int64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var total int64
	for e := pc.head; e != nil; e = e.next {
		if e.span.SoleHolder() {
			total += e.span.Bytes()
		}
	}
	return total
}

// purge drops every entry and releases its pages — the scheduler Close
// path, after which the shared pool must report zero pages in use (the
// refcount-leak check the tests pin).
func (pc *prefixCache) purge() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for e := pc.head; e != nil; e = e.next {
		e.span.Release()
		pc.stats.Bytes -= e.bytes
		pc.stats.Entries--
	}
	pc.head, pc.tail = nil, nil
	pc.entries = make(map[uint64][]*prefixEntry)
}

// snapshot returns the current counters.
func (pc *prefixCache) snapshot() prefixCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.stats
}
