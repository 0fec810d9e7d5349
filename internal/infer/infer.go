// Package infer provides the incremental-decoding path of the model: a
// KV-cached block forward over prompt chunks and cross-session decode
// batches, plus sampling utilities. This is the code path an edge
// deployment of an APTQ-quantized model would actually run — the paper's
// motivating use case — verified token-for-token against model.Forward.
package infer

import (
	"context"
	"errors"
	"math/rand"

	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// ErrEmptyPrompt is returned by Prefill (and everything built on it) when
// the prompt has no tokens: there are no logits to return.
var ErrEmptyPrompt = errors.New("infer: empty prompt")

// kvCache stores the per-block key/value history of one sequence as a
// list of references to fixed-size pages leased from the session's
// KVPagePool. Pages are leased on demand and never moved while referenced,
// so a row slice handed out by kRow/vRow stays valid — the stability
// in-flight attention relies on — even as later appends grow the cache.
// Pages may be shared with other holders (prefix-cache entries, other
// sessions that adopted the same prefix): the cache only ever writes its
// tail page, and a write into a still-shared tail page copies the owned
// row prefix into a fresh exclusive page first (copy-on-write), so shared
// bytes never change underneath another reader.
type kvCache struct {
	dim   int
	rows  int // rows per page (pool granularity)
	pool  *KVPagePool
	pages []*kvPage // page i holds rows [i*rows, (i+1)*rows)
	len   int       // valid rows
}

func newKVCache(pool *KVPagePool) *kvCache {
	return &kvCache{dim: pool.dim, rows: pool.rows, pool: pool}
}

// kRow and vRow return mutable views of row t (t < len for reads; rows
// from len on are writable once reserved).
func (c *kvCache) kRow(t int) []float64 { return c.pages[t/c.rows].k.Row(t % c.rows) }
func (c *kvCache) vRow(t int) []float64 { return c.pages[t/c.rows].v.Row(t % c.rows) }

// reserve makes rows [c.len, c.len+n) writable up front: it leases every
// page the write range needs and copy-on-writes any still-shared page in
// that range — only possible after a rollback into adopted pages — so a
// full, shared page is immutable for as long as anyone else references it.
// It is the only place a cache leases pages: the forward pass just writes
// the rows it reserved. All budget failures therefore surface here — before
// any compute runs or any row is written — which is what makes
// ErrPoolExhausted retryable: a failed reserve releases the pages it
// leased in this call and leaves the cache exactly as it found it.
//
//aptq:noalloc
func (c *kvCache) reserve(n int) error {
	if n <= 0 {
		return nil
	}
	// Copy-on-write every shared page the write range touches. Only the
	// first page can hold rows this cache still owns (c.len % rows of
	// them); later shared pages (warm capacity left by a rollback into
	// adopted pages) are replaced outright.
	first := c.len / c.rows
	last := (c.len + n - 1) / c.rows
	for pi := first; pi <= last && pi < len(c.pages); pi++ {
		pg := c.pages[pi]
		if pg.refs.Load() == 1 {
			continue
		}
		fresh, err := c.pool.lease()
		if err != nil {
			return err // already-copied pages hold identical bytes; nothing to undo
		}
		if pi == first {
			for r := 0; r < c.len%c.rows; r++ {
				copy(fresh.k.Row(r), pg.k.Row(r))
				copy(fresh.v.Row(r), pg.v.Row(r))
			}
		}
		c.pages[pi] = fresh
		c.pool.release(pg)
	}
	leased0 := len(c.pages)
	for len(c.pages)*c.rows < c.len+n {
		pg, err := c.pool.lease()
		if err != nil {
			for _, p := range c.pages[leased0:] {
				c.pool.release(p)
			}
			c.pages = c.pages[:leased0]
			return err
		}
		c.pages = append(c.pages, pg) //aptq:ignore noalloc KV cache grows by fixed pages: amortized O(1/PageRows) per token and free-list recycled, pinned by the steady-state alloc tests
	}
	return nil
}

// releaseWarm returns pages holding no valid rows (reserved or left warm
// by a rollback) to the pool — the cross-block cleanup of a reservation
// that failed in a later block, so a starved session does not sit on
// budget it cannot use.
func (c *kvCache) releaseWarm() {
	keep := (c.len + c.rows - 1) / c.rows
	for _, pg := range c.pages[keep:] {
		c.pool.release(pg)
	}
	for i := keep; i < len(c.pages); i++ {
		c.pages[i] = nil
	}
	c.pages = c.pages[:keep]
}

// appendRow writes one key/value row pair at position c.len, which the
// caller has reserved.
func (c *kvCache) appendRow(k, v []float64) {
	if c.pages[c.len/c.rows].refs.Load() > 1 {
		panic("infer: KV row written without a reservation (its page is still shared)")
	}
	copy(c.kRow(c.len), k)
	copy(c.vRow(c.len), v)
	c.len++
}

// truncate rolls the cache back to n valid rows — the Prefill
// error-rollback path. Leased pages are kept (warm capacity; a later
// regrow that lands in a still-shared page copies on write), so rollback
// never invalidates concurrently shared pages.
func (c *kvCache) truncate(n int) {
	if n < c.len {
		c.len = n
	}
}

// releaseAll returns every page reference to the pool — the Reset path. A
// page whose last holder this was lands on the pool free list and is
// reused by later growth, so a recycled scheduler slot leases warm pages
// instead of allocating.
func (c *kvCache) releaseAll() {
	for i, pg := range c.pages {
		c.pool.release(pg)
		c.pages[i] = nil
	}
	c.pages = c.pages[:0]
	c.len = 0
}

// bytes reports the logical size of the referenced pages — what this
// sequence would occupy if every page were private. Shared pages are
// counted by every referencing cache; the pool's UniqueBytes counts them
// once.
func (c *kvCache) bytes() int {
	return len(c.pages) * int(c.pool.PageBytes())
}

// Session is an incremental decoding session over a fixed model. It is not
// safe for concurrent use.
type Session struct {
	m *model.Model
	// pool is the KV page pool the caches lease pages from. NewSession
	// gives each session a private pool; NewSessionPooled shares one pool
	// across sessions so full prefix pages can be adopted by reference
	// (SharePages/AdoptPages in pagepool.go).
	pool   *KVPagePool
	caches []*kvCache
	pos    int
	// kvQuant, when non-nil, fake-quantizes each key/value row as it
	// enters the cache — KV-cache quantization, the other large memory
	// consumer on edge devices beside the weights. Per-row (per-token,
	// per-layer) dynamic grids.
	kvQuant *quant.ActQuantizer
	// scratch is the reusable arena of the block forward (prefill.go),
	// sized on first use and kept across Reset so a recycled scheduler slot
	// allocates nothing per forward in steady state.
	scratch *chunkScratch
	// logits holds the next-token logits of the session's latest forward
	// (1 x vocab). Owned by the session, not an arena: a shared forward runs
	// on one member's arena, which later forwards of other groups reuse
	// before every member has sampled.
	logits *tensor.Mat
}

// NewSession creates a decoding session with empty caches over a private
// page pool. Sessions that should share KV pages (the serving scheduler's
// slots and its prefix cache) use NewSessionPooled instead.
func NewSession(m *model.Model) *Session {
	return NewSessionPooled(m, NewPagePool(m.Cfg.Dim, m.Cfg.MaxSeq), 0)
}

// NewSessionPooled creates a decoding session whose KV caches lease pages
// from the given shared pool; kvBits > 0 additionally stores the KV cache
// at that bit width (see NewSessionKVQuant). All sessions over one pool
// must share the model's Dim and MaxSeq — the pool's page shape.
func NewSessionPooled(m *model.Model, pool *KVPagePool, kvBits int) *Session {
	s := &Session{m: m, pool: pool, logits: tensor.New(1, m.Cfg.Vocab)}
	for range m.Blocks {
		s.caches = append(s.caches, newKVCache(pool))
	}
	if kvBits > 0 {
		s.kvQuant = newKVQuantizer(kvBits)
	}
	return s
}

// NewSessionKVQuant creates a decoding session whose KV cache is stored at
// the given bit width (e.g. 4 for a 4-bit KV cache).
func NewSessionKVQuant(m *model.Model, kvBits int) *Session {
	s := NewSession(m)
	s.kvQuant = newKVQuantizer(kvBits)
	return s
}

// Pool returns the page pool the session's KV caches lease from.
func (s *Session) Pool() *KVPagePool { return s.pool }

// newKVQuantizer builds the per-token dynamic quantizer KV-cache
// quantization uses.
func newKVQuantizer(kvBits int) *quant.ActQuantizer {
	return &quant.ActQuantizer{Bits: kvBits, PerToken: true}
}

// Pos returns the number of tokens consumed so far.
func (s *Session) Pos() int { return s.pos }

// Logits returns the next-token logits (1 x vocab) of the session's latest
// successful forward, owned by the session and overwritten by its next.
func (s *Session) Logits() *tensor.Mat { return s.logits }

// Reset clears the caches for a new sequence, releasing every page
// reference back to the pool. Pages this session was the last holder of
// land on the pool's free list and are leased again by later growth, so a
// recycled slot in a serving scheduler pays no re-allocation and decodes
// bit-identically to a fresh session.
func (s *Session) Reset() {
	s.pos = 0
	for _, c := range s.caches {
		c.releaseAll()
	}
}

// reserveKV reserves n more rows of KV capacity in every block's cache,
// leasing (and copy-on-writing) all pages the next n appended rows will
// touch. It is the single point where a budgeted pool's ErrPoolExhausted
// surfaces: DecodeRows, Append and ImportKV reserve before running any compute,
// so a failed call leaves the session bit-for-bit unchanged and the exact
// same call can be retried once the scheduler frees pages. On failure the
// reservations already made (including pre-existing warm capacity in
// earlier blocks) are released back to the pool, so a starved session
// never sits on budget it cannot use.
//
//aptq:noalloc
func (s *Session) reserveKV(n int) error {
	for i, c := range s.caches {
		if err := c.reserve(n); err != nil {
			for _, done := range s.caches[:i] {
				done.releaseWarm()
			}
			c.releaseWarm()
			return err
		}
	}
	return nil
}

// KVCacheBytes reports the logical KV memory of the session across all
// blocks: the bytes of every page it references, whether or not the page
// is shared with other sessions or the prefix cache. It grows in
// page-sized (PageRows-row) steps with the sequence instead of being
// MaxSeq-sized up front. For the deduplicated resident footprint across
// all sessions of a shared pool, see KVPagePool.Stats().UniqueBytes.
func (s *Session) KVCacheBytes() int {
	n := 0
	for _, c := range s.caches {
		n += c.bytes()
	}
	return n
}

// Prefill consumes a prompt and returns the logits after its last token,
// processing the prompt in DefaultPrefillChunk-sized batched chunks (see
// Append) — bit-identical to feeding the prompt through Step token by
// token, but with matrix-matrix projections, each packed weight row
// decoded once per chunk and a reusable scratch arena, so time-to-first-
// token scales with the prompt as a handful of block forwards instead of
// one per token.
//
// An empty prompt returns ErrEmptyPrompt: there is no last token to
// report logits for. On any error the session is rolled back to its
// pre-call state (position and KV caches), so a failed Prefill never
// leaves a half-advanced session with a poisoned cache.
func (s *Session) Prefill(prompt []int) (*tensor.Mat, error) {
	return s.PrefillChunked(prompt, DefaultPrefillChunk)
}

// PrefillChunked is Prefill with an explicit chunk size (<= 0 selects
// DefaultPrefillChunk). Results are bit-identical at every chunk size;
// larger chunks amortize dispatch and weight decode better, smaller ones
// bound how much work one call does (the serving scheduler's admission
// knob). The rollback-on-error contract matches Prefill.
//
//aptq:noalloc
func (s *Session) PrefillChunked(prompt []int, chunk int) (*tensor.Mat, error) {
	return s.PrefillChunkedCtx(nil, prompt, chunk)
}

// PrefillChunkedCtx is PrefillChunked with a step-level cancellation
// check: ctx is consulted before each chunk's block forward, so a client
// disconnect or deadline mid-prefill aborts after at most one chunk of
// work instead of running the whole prompt. On cancellation the session
// is rolled back to its pre-call state — the same rollback contract as
// any other prefill error — and ctx.Err() is returned. A nil ctx never
// cancels.
func (s *Session) PrefillChunkedCtx(ctx context.Context, prompt []int, chunk int) (*tensor.Mat, error) {
	if len(prompt) == 0 {
		return nil, ErrEmptyPrompt
	}
	if chunk <= 0 {
		chunk = DefaultPrefillChunk
	}
	pos0 := s.pos
	var logits *tensor.Mat
	for lo := 0; lo < len(prompt); lo += chunk {
		if ctx != nil {
			if err := ctx.Err(); err != nil { //aptq:ignore noalloc Context.Err on std contexts is allocation-free; the dynamic call is opaque to the checker
				s.rewind(pos0)
				return nil, err
			}
		}
		hi := lo + chunk
		if hi > len(prompt) {
			hi = len(prompt)
		}
		l, err := s.Append(prompt[lo:hi])
		if err != nil {
			s.rewind(pos0)
			return nil, err
		}
		logits = l
	}
	// The session-owned logits row is cloned so callers may hold it across
	// later use of the session.
	return logits.Clone(), nil //aptq:ignore noalloc documented contract: the logits row is cloned out of the session once per prefill call
}

// PrefillLoop consumes the prompt one Step at a time — the bit-identity
// oracle of the chunked path and the baseline of the BenchmarkPrefill pairs. It shares
// Prefill's contract, including rollback on error and the cloned return
// (Step's logits live in the session's logits buffer; the clone keeps
// them valid across later use of the session).
func (s *Session) PrefillLoop(prompt []int) (*tensor.Mat, error) {
	if len(prompt) == 0 {
		return nil, ErrEmptyPrompt
	}
	pos0 := s.pos
	var logits *tensor.Mat
	var err error
	for _, tok := range prompt {
		logits, err = s.Step(tok)
		if err != nil {
			s.rewind(pos0)
			return nil, err
		}
	}
	return logits.Clone(), nil
}

// rewind rolls the session back to pos consumed tokens, truncating every
// block's KV rows past it (page references are kept). Valid only for pos
// <= the current position; appended rows past pos are abandoned.
func (s *Session) rewind(pos int) {
	s.pos = pos
	for _, c := range s.caches {
		c.truncate(pos)
	}
}

// Generate samples n tokens after the prompt at the given temperature
// (0 = greedy argmax) and returns just the generated tokens.
func (s *Session) Generate(rng *rand.Rand, prompt []int, n int, temperature float64) ([]int, error) {
	logits, err := s.Prefill(prompt)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, n)
	var sp Sampler
	for len(out) < n {
		tok := sp.Sample(rng, logits.Row(0), temperature)
		out = append(out, tok)
		if len(out) == n {
			break
		}
		logits, err = s.Step(tok)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SampleLogits draws a token from softmax(logits/temperature); a
// temperature of 0 returns the argmax.
//
// Degenerate inputs have explicit behavior instead of panics or silent
// bias: an empty logits slice returns -1 (no valid token); logits that
// are all -Inf — a fully masked distribution — sample uniformly (the
// greedy path returns index 0), matching tensor.Softmax's uniform
// fallback; and NaN logits are treated as masked (-Inf), so a numerical
// blow-up in one vocab entry can never be selected. All-NaN logits behave
// exactly like all--Inf.
//
// Each call runs on fresh scratch; decode loops that sample every token
// should hold a Sampler instead, which reuses its buffers across calls
// (bit-identically) and keeps the steady state allocation-free.
func SampleLogits(rng *rand.Rand, logits []float64, temperature float64) int {
	var sp Sampler
	return sp.Sample(rng, logits, temperature)
}
