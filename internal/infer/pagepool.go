// Paged KV storage: the shared, refcounted page pool under every
// session's KV cache. A page is a fixed PageRows x dim pair of key/value
// matrices leased from a KVPagePool; sessions hold page *references*, not
// private copies, so two sessions whose sequences share a prefix can hold
// the very same pages — attach is a pointer adoption (a refcount bump per
// page), not a memcpy per block — and resident KV scales with *unique*
// tokens instead of with slot count. A page is immutable once full: the
// only page a session ever writes is its tail page, and writing into a
// tail page that is still shared (refcount > 1) first copies the owned
// row prefix into a fresh exclusive page — copy-on-write, confined to the
// tail — so a shared page's bytes can never change under a concurrent
// reader. Pages whose refcount reaches zero return to the pool's free
// list and are reused by later growth, which keeps the decode and prefill
// steady states allocation-free exactly like the chunk-owning cache they
// replace.
//
// Bit-identity: pages store the same rows at the same positions the
// chunk-owning cache stored, kRow/vRow hand out the same row views, and
// copy-on-write copies bytes verbatim, so paged decode output is
// bit-identical to the memcpy model — ExportKV/ImportKV (kvspan.go) stay
// the compatibility oracle the tests pin this against.
package infer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// ErrPoolExhausted is returned by page leases (surfaced through
// Session.Step / Append / ImportKV) when the pool has a byte budget, every
// budgeted page is referenced, and the reclaimer (if any) cannot free one.
// The pool never allocates past its budget: callers see this error instead
// of the replica seeing the OOM killer. The serving scheduler reacts by
// preempting a slot; the session that got the error is unchanged and may
// retry the exact same call once pages free up.
var ErrPoolExhausted = errors.New("infer: KV page pool exhausted (budget reached)")

// PageRows is the row granularity of the paged KV cache: pages hold
// PageRows sequence positions of keys and values per block, the prefix
// cache in internal/serve shares full pages at exactly this granularity,
// and the KV cache grows one page at a time. (It equals the historical
// kvChunkRows allocation granularity; the constant now lives in one
// place instead of being re-assumed by the serving layer.)
const PageRows = 16

// kvPage is one refcounted page of KV storage: PageRows (or pool.rows,
// when MaxSeq clamps it) positions of keys and values at one block. The
// refcount counts holders — session caches, prefix-cache entries, and
// in-flight PageSpans; a page is only written by a holder that can prove
// exclusivity (refs == 1), everything else copies first.
type kvPage struct {
	k, v *tensor.Mat // rows x dim
	refs atomic.Int32
}

// KVPagePool allocates and recycles KV pages for the sessions that share
// it. Pages released back to the pool (refcount zero) land on a free list
// and are handed out again by later growth, so a serving scheduler's
// steady state leases recycled pages instead of allocating. The pool is
// safe for concurrent use; page refcounts are atomic.
//
// Sessions sharing pages must share the pool (AdoptPages enforces this):
// the pool is the unit of unique-byte accounting, and a page must return
// to the free list it was leased from.
type KVPagePool struct {
	dim  int
	rows int // rows per page: PageRows clamped to MaxSeq

	mu      sync.Mutex
	free    []*kvPage
	created int64 // pages ever allocated
	// budgetPages caps created when > 0: the pool will never hold more
	// than budgetPages pages alive at once (in use + free list), so its
	// resident KV bytes never exceed budgetPages*PageBytes().
	budgetPages int64
	// highWater is the maximum pages-in-use ever observed — the number the
	// budget invariant is asserted against (highWater <= budgetPages).
	highWater int64
	// reclaim, when set, is asked to free one reclaimable page reference
	// (the prefix cache evicting an unpinned entry) when a lease finds the
	// budget exhausted. It reports whether it freed anything; it is invoked
	// WITHOUT the pool lock held, because freeing routes back through
	// release().
	reclaim func() bool
}

// NewPagePool builds a pool of maxSeq-clamped PageRows x dim pages. Every
// session of a model (and the scheduler's prefix cache) that should share
// KV pages must be constructed over the same pool.
func NewPagePool(dim, maxSeq int) *KVPagePool {
	rows := PageRows
	if maxSeq > 0 && maxSeq < rows {
		rows = maxSeq
	}
	return &KVPagePool{dim: dim, rows: rows}
}

// Rows reports the sequence positions one page covers — the sharing
// granularity of everything built on the pool.
func (p *KVPagePool) Rows() int { return p.rows }

// PageBytes reports the resident size of one page (keys plus values).
func (p *KVPagePool) PageBytes() int64 { return int64(2 * p.rows * p.dim * 8) }

// SetBudget caps the pool at floor(bytes / PageBytes()) pages; bytes <= 0
// removes the cap. With a budget in place leases fail with
// ErrPoolExhausted instead of allocating past it — the pool's resident
// bytes are a hard guarantee, not a soft target. Set the budget before
// serving traffic; it is not meant to shrink below pages already created.
func (p *KVPagePool) SetBudget(bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if bytes <= 0 {
		p.budgetPages = 0
		return
	}
	p.budgetPages = bytes / p.PageBytes()
	if p.budgetPages < 1 {
		p.budgetPages = 1 // a budget below one page could never serve anything
	}
}

// BudgetPages reports the page cap (0 = unbounded).
func (p *KVPagePool) BudgetPages() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.budgetPages
}

// BudgetBytes reports the byte form of the cap (0 = unbounded).
func (p *KVPagePool) BudgetBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.budgetPages * p.PageBytes()
}

// Budgeted reports whether the pool has a byte budget.
func (p *KVPagePool) Budgeted() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.budgetPages > 0
}

// SetReclaimer registers the sacrificial tier: a callback asked to free
// one page reference when a lease finds the budget exhausted (the serving
// scheduler registers its prefix cache's unpinned-LRU eviction). It must
// return false when it cannot free anything, or leases would spin.
func (p *KVPagePool) SetReclaimer(f func() bool) {
	p.mu.Lock()
	p.reclaim = f
	p.mu.Unlock()
}

// PoolStats is a point-in-time snapshot of pool residency.
type PoolStats struct {
	// PagesInUse counts pages currently referenced by at least one holder;
	// UniqueBytes is their resident size — the honest KV footprint, counting
	// a page shared by N holders once.
	PagesInUse  int64
	UniqueBytes int64
	// FreePages counts recycled pages parked on the free list (warm
	// capacity retained for reuse, not referenced by anyone).
	FreePages int64
	// HighWaterPages / HighWaterBytes record the maximum pages-in-use ever
	// observed; with a budget set, HighWaterBytes <= BudgetBytes is the
	// memory guarantee (test- and smoke-enforced). BudgetBytes is 0 for an
	// unbounded pool.
	HighWaterPages int64
	HighWaterBytes int64
	BudgetBytes    int64
}

// Stats snapshots the pool counters.
func (p *KVPagePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	inUse := p.created - int64(len(p.free))
	return PoolStats{
		PagesInUse:     inUse,
		UniqueBytes:    inUse * p.PageBytes(),
		FreePages:      int64(len(p.free)),
		HighWaterPages: p.highWater,
		HighWaterBytes: p.highWater * p.PageBytes(),
		BudgetBytes:    p.budgetPages * p.PageBytes(),
	}
}

// lease hands out an exclusively owned page (refcount 1): a recycled page
// when the free list has one, a fresh allocation while the budget (if any)
// permits, and otherwise one round of reclaim (cache eviction) per retry
// until the reclaimer gives up — then ErrPoolExhausted. The reclaimer runs
// outside the pool lock: the pages it frees arrive through release().
func (p *KVPagePool) lease() (*kvPage, error) {
	for {
		p.mu.Lock()
		if n := len(p.free); n > 0 {
			pg := p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
			if inUse := p.created - int64(len(p.free)); inUse > p.highWater {
				p.highWater = inUse
			}
			p.mu.Unlock()
			pg.refs.Store(1)
			return pg, nil
		}
		if p.budgetPages <= 0 || p.created < p.budgetPages {
			p.created++
			if p.created > p.highWater { // free list is empty: all created pages are in use
				p.highWater = p.created
			}
			p.mu.Unlock()
			pg := &kvPage{ //aptq:ignore noalloc page allocation is amortized O(1/PageRows) per token and disappears entirely once the pool's free list is warm
				k: tensor.New(p.rows, p.dim), //aptq:ignore noalloc see above: cold-pool page allocation, recycled forever after
				v: tensor.New(p.rows, p.dim), //aptq:ignore noalloc see above: cold-pool page allocation, recycled forever after
			}
			pg.refs.Store(1)
			return pg, nil
		}
		reclaim := p.reclaim
		p.mu.Unlock()
		if reclaim == nil || !reclaim() { //aptq:ignore noalloc the reclaimer runs only on the exhausted-pool path, never in steady-state decode; eviction bookkeeping there may allocate
			return nil, ErrPoolExhausted
		}
	}
}

// retain adds a reference to pg on behalf of a new holder.
func (p *KVPagePool) retain(pg *kvPage) { pg.refs.Add(1) }

// release drops one reference; the last holder's release parks the page
// on the free list for reuse.
func (p *KVPagePool) release(pg *kvPage) {
	if pg.refs.Add(-1) == 0 {
		p.mu.Lock()
		p.free = append(p.free, pg) //aptq:ignore noalloc free-list growth is amortized and bounded by the pool's high-water page count
		p.mu.Unlock()
	}
}

// PageSpan is a refcounted reference to the full KV pages covering token
// positions [Start, End) across every block of a session — the zero-copy
// counterpart of KVSpan. Holding a PageSpan keeps its pages alive (and,
// via copy-on-write, immutable); Release drops that hold. Spans are safe
// to share between goroutines: holders only read the pages.
type PageSpan struct {
	Start, End int
	pool       *KVPagePool
	pages      [][]*kvPage // per block, (End-Start)/pool.rows pages
}

// Tokens returns the number of sequence positions the span covers.
func (ps *PageSpan) Tokens() int { return ps.End - ps.Start }

// Pages returns the number of pages the span references per block.
func (ps *PageSpan) Pages() int { return (ps.End - ps.Start) / ps.pool.rows }

// Bytes reports the logical size of the referenced pages — what a
// memcpy'd snapshot of the same rows would occupy. The resident cost of a
// span is shared with every other holder of the same pages; the pool's
// UniqueBytes accounts that once.
func (ps *PageSpan) Bytes() int64 {
	return int64(len(ps.pages)*ps.Pages()) * ps.pool.PageBytes()
}

// Retain adds a reference on behalf of a new holder of the whole span.
func (ps *PageSpan) Retain() {
	for _, pgs := range ps.pages {
		for _, pg := range pgs {
			ps.pool.retain(pg)
		}
	}
}

// Release drops the holder's references. The span must not be used after
// its holder releases it.
func (ps *PageSpan) Release() {
	for _, pgs := range ps.pages {
		for _, pg := range pgs {
			ps.pool.release(pg)
		}
	}
}

// SoleHolder reports whether the span's holder owns the only reference on
// every page — i.e. releasing the span would actually return pages to the
// pool. The prefix cache uses it to pick sacrificial entries under memory
// pressure: evicting an entry whose pages are still adopted by live slots
// frees nothing. The answer is advisory under concurrency (a slot may
// adopt between the check and the release); that race only makes an
// eviction free less than hoped, never unsafe.
func (ps *PageSpan) SoleHolder() bool {
	for _, pgs := range ps.pages {
		for _, pg := range pgs {
			if pg.refs.Load() != 1 {
				return false
			}
		}
	}
	return true
}

// SharePages returns a refcounted reference to the full pages covering
// positions [lo, hi) of every block — the zero-copy form of ExportKV. lo
// and hi must be page-aligned and the rows already consumed (hi <=
// Pos()), so every referenced page is full and therefore immutable: the
// session never rewrites a full page (rollback into one copies first).
// The caller owns the returned span and must Release it (a prefix-cache
// entry holds it until eviction).
func (s *Session) SharePages(lo, hi int) *PageSpan {
	rows := s.pool.rows
	if lo < 0 || hi > s.pos || lo >= hi || lo%rows != 0 || hi%rows != 0 {
		panic(fmt.Sprintf("infer: SharePages [%d,%d) of a session at position %d (page rows %d)", lo, hi, s.pos, rows))
	}
	ps := &PageSpan{Start: lo, End: hi, pool: s.pool}
	for _, c := range s.caches {
		pgs := make([]*kvPage, 0, hi/rows-lo/rows)
		for pi := lo / rows; pi < hi/rows; pi++ {
			pg := c.pages[pi]
			s.pool.retain(pg)
			pgs = append(pgs, pg)
		}
		ps.pages = append(ps.pages, pgs)
	}
	return ps
}

// AdoptPages appends the span's pages to every block's cache by reference
// — a refcount bump per page instead of ImportKV's memcpy per block — and
// advances the session to span.End. The session must sit exactly at
// span.Start with a page-aligned cache (the recycled-slot attach path:
// position 0 after Reset, then each span's start for consecutive spans),
// and must share the span's pool — pages are leased from and return to
// one free list, and unique-byte accounting lives there. The span itself
// stays owned by the caller (the session takes its own references), so a
// prefix-cache entry can be evicted while adopted pages live on.
func (s *Session) AdoptPages(ps *PageSpan) error {
	rows := s.pool.rows
	if ps.pool != s.pool {
		return fmt.Errorf("infer: AdoptPages across pools (pages must be leased from the session's own pool)")
	}
	if s.pos != ps.Start {
		return fmt.Errorf("infer: AdoptPages of span [%d,%d) into a session at position %d", ps.Start, ps.End, s.pos)
	}
	if len(ps.pages) != len(s.caches) {
		return fmt.Errorf("infer: AdoptPages span has %d blocks, session has %d", len(ps.pages), len(s.caches))
	}
	if ps.End > s.m.Cfg.MaxSeq {
		return fmt.Errorf("infer: AdoptPages span end %d exceeds MaxSeq %d", ps.End, s.m.Cfg.MaxSeq)
	}
	// Validate every block's cache before touching any state, so a failed
	// adoption never leaves the session half-advanced (the ImportKV
	// contract).
	for _, c := range s.caches {
		if len(c.pages)*rows != ps.Start {
			return fmt.Errorf("infer: AdoptPages at position %d needs a page-aligned cache, have %d pages of %d rows",
				ps.Start, len(c.pages), rows)
		}
	}
	for bi, c := range s.caches {
		for _, pg := range ps.pages[bi] {
			s.pool.retain(pg)
			c.pages = append(c.pages, pg)
		}
		c.len = ps.End
	}
	s.pos = ps.End
	return nil
}

// ReplacePages swaps the session's own pages over [ps.Start, ps.End) for
// the span's: the de-duplication half of page sharing. Two sessions that
// prefill the same prefix side by side compute the same rows twice —
// byte-identical by determinism — and the one that learns of the other's
// pages second drops its copies for them, so the pool holds the prefix
// once however the two raced. The rows must already be consumed (ps.End <=
// Pos()), which makes every page involved full and therefore immutable;
// like SharePages, anything else is a caller bug and panics. The session
// takes its own references; the span stays the caller's.
func (s *Session) ReplacePages(ps *PageSpan) {
	rows := s.pool.rows
	if ps.pool != s.pool || len(ps.pages) != len(s.caches) || ps.Start%rows != 0 || ps.End%rows != 0 || ps.End > s.pos {
		panic(fmt.Sprintf("infer: ReplacePages of span [%d,%d) in a session at position %d (page rows %d)", ps.Start, ps.End, s.pos, rows))
	}
	for bi, c := range s.caches {
		for i, pg := range ps.pages[bi] {
			pi := ps.Start/rows + i
			if old := c.pages[pi]; old != pg {
				s.pool.retain(pg)
				c.pages[pi] = pg
				s.pool.release(old)
			}
		}
	}
}
