// Package serve provides the continuous-batching scheduler that turns the
// repository's KV-cached decode path into a serving engine. A Scheduler
// owns a fixed pool of decoding slots — one infer.Session per slot, each on
// its own model.Model view of one shared (float or packed) weight copy —
// and an admission queue of Requests. Every tick advances all live slots by
// one token: each slot plans its step (sample, emit, finish checks), the
// decoding slots' tokens ride one shared block forward per worker — a
// packed weight row is decoded once per forward, not once per slot — beside
// the prefilling slots' prompt chunks, and each slot commits its result.
// The moment a sequence finishes (EOS, stop token, max-tokens, or the
// context limit) its slot is recycled and the next queued request is
// prefilled, so throughput tracks the number of live sequences.
//
// Determinism contract: a request's output depends only on the model and
// the request itself (prompt, seed, temperature, stop set) — never on the
// slot it lands in, the worker count, or what traffic is co-scheduled.
// Scheduler output is bit-identical to Sequential on a fresh session,
// which tests enforce across slot and worker counts.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/parallel"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: scheduler closed")

// ErrDraining is returned by Submit after Drain: the scheduler is
// completing queued and in-flight work ahead of a shutdown and admits
// nothing new.
var ErrDraining = errors.New("serve: scheduler draining")

// ErrQueueFull is returned by Submit when Options.MaxQueue bounds the
// admission queue and it is at capacity — the overload signal the HTTP
// front-end maps to 429 instead of queueing without bound.
var ErrQueueFull = errors.New("serve: admission queue full")

// ErrDrainTimeout is the error carried by requests force-closed when a
// bounded drain (DrainFor) expires before the scheduler empties: the
// shutdown deadline won, not the request.
var ErrDrainTimeout = errors.New("serve: drain timeout expired")

// ErrOverBudget is returned by Submit when Options.KVBudgetBytes is set
// and the request's worst-case KV demand (prompt + MaxTokens across every
// block) exceeds the entire budget: the request could never run to
// completion on this replica, so it is refused up front (429 at the HTTP
// layer) instead of being admitted into guaranteed starvation.
var ErrOverBudget = errors.New("serve: request's worst-case KV demand exceeds the memory budget")

// FinishReason tells why a request stopped decoding.
type FinishReason string

// Finish reasons.
const (
	// FinishEOS: the model sampled the configured end-of-sequence token
	// (not emitted).
	FinishEOS FinishReason = "eos"
	// FinishStop: the model sampled one of the request's stop tokens (not
	// emitted).
	FinishStop FinishReason = "stop"
	// FinishLength: the request's MaxTokens budget is exhausted.
	FinishLength FinishReason = "length"
	// FinishContext: the model's MaxSeq context is full; the last sampled
	// token is emitted but cannot be fed back.
	FinishContext FinishReason = "context"
	// FinishError: decoding failed; Result.Err holds the cause.
	FinishError FinishReason = "error"
	// FinishCancelled: the request's context was cancelled (typically a
	// client disconnect). Generation stops at the next tick — a queued
	// request resolves without ever occupying a slot — and the slot is
	// recycled; Tokens holds whatever was generated before cancellation.
	FinishCancelled FinishReason = "cancelled"
	// FinishDeadline: the request's context deadline expired mid-flight.
	// Like FinishCancelled, the slot is freed on the next tick and the
	// tokens generated so far are delivered.
	FinishDeadline FinishReason = "deadline_exceeded"
)

// ctxFinishReason maps a request context's state to the finish reason it
// implies; "" when the context is nil or still live.
func ctxFinishReason(ctx context.Context) FinishReason {
	if ctx == nil {
		return ""
	}
	switch ctx.Err() { //aptq:ignore noalloc Context.Err on std contexts is allocation-free; the dynamic call is opaque to the checker
	case nil:
		return ""
	case context.DeadlineExceeded:
		return FinishDeadline
	default:
		return FinishCancelled
	}
}

// Request is one generation job.
type Request struct {
	// ID is an opaque caller tag echoed in the Result.
	ID string
	// Prompt is the token sequence to prefill. Empty prompts fail with
	// infer.ErrEmptyPrompt.
	Prompt []int
	// MaxTokens bounds the generated tokens (<= 0 generates nothing and
	// finishes with FinishLength).
	MaxTokens int
	// Temperature is the sampling temperature (0 = greedy argmax).
	Temperature float64
	// Seed seeds this request's private RNG stream, making its output
	// reproducible independent of co-scheduled traffic.
	Seed int64
	// Stop lists tokens that end generation without being emitted.
	Stop []int
	// Ctx, when non-nil, bounds the request's lifetime: the moment it is
	// cancelled or its deadline expires, the request finishes with
	// FinishCancelled / FinishDeadline at the next scheduler tick and its
	// slot is recycled — an abandoned request stops consuming decode ticks
	// instead of running to its token budget. A nil Ctx never cancels. A
	// request that runs to completion is unaffected: cancellation can only
	// truncate output, never change the tokens that were generated.
	Ctx context.Context
	// Priority orders admission under contention: a freed slot admits the
	// highest-priority queued request first (FIFO within a priority
	// class). It affects only when a request runs, never its output.
	Priority int
}

// Result is the outcome of one Request.
type Result struct {
	ID           string
	Tokens       []int
	FinishReason FinishReason
	// Err is non-nil only when FinishReason is FinishError; Tokens then
	// holds whatever was generated before the failure.
	Err error
}

// Ticket is the handle returned by Submit; the Result is delivered exactly
// once, and generated tokens stream on Tokens as they are decoded.
type Ticket struct {
	ch     chan Result
	tokens chan int
}

// Done returns a channel that receives the request's Result.
func (t *Ticket) Done() <-chan Result { return t.ch }

// Wait blocks until the Result is available.
func (t *Ticket) Wait() Result { return <-t.ch }

// Tokens returns the per-token stream: each generated token is sent the
// tick it is decoded, and the channel is closed when the request finishes
// (the Result is then available on Done). The channel is buffered to the
// request's full token budget, so the scheduler never blocks on a slow or
// absent consumer — reading it is optional, and the stream's contents
// always equal Result.Tokens exactly.
func (t *Ticket) Tokens() <-chan int { return t.tokens }

// deliver closes the token stream and resolves the ticket. Called exactly
// once per ticket, from the scheduler loop.
func (t *Ticket) deliver(res Result) {
	if t.tokens != nil {
		close(t.tokens)
	}
	t.ch <- res
}

// Options configures a Scheduler. The zero value is NOT useful for EOS:
// use DefaultOptions (EOS -1 = disabled) and override fields.
type Options struct {
	// Slots is the number of concurrently decoding sequences (default 4).
	Slots int
	// EOS is the end-of-sequence token id; negative disables EOS
	// detection.
	EOS int
	// KVQuantBits, when non-zero, stores every slot's KV cache at that
	// bit width (see infer.NewSessionKVQuant).
	KVQuantBits int
	// PrefillChunk bounds the prompt tokens a slot admits per decode tick
	// (<= 0 selects infer.DefaultPrefillChunk). A long prompt is consumed
	// across consecutive ticks chunk by chunk, so its admission delays
	// co-scheduled slots' ticks by at most one chunk's worth of work
	// instead of a whole-prompt stall. Output is unaffected: chunked
	// prefill is bit-identical to the token loop at every chunk size.
	PrefillChunk int
	// PrefixCacheBytes, when positive, enables the shared prefix/KV cache
	// with that byte budget: completed prefill pages are published at
	// infer.PageRows granularity, and a request whose prompt starts with
	// cached pages adopts them by reference — a refcount bump per page, no
	// memcpy, no extra resident bytes — instead of recomputing the prefill:
	// near-zero time-to-first-token on repeat system prompts, and resident
	// KV that scales with unique tokens instead of slot count. Output is
	// unaffected: an adopted prefix references the very bytes a recomputed
	// one would produce (prefill is deterministic), so scheduled output
	// stays bit-identical to Sequential with or without the cache. 0
	// disables caching.
	PrefixCacheBytes int64
	// MaxQueue bounds the admission queue depth: Submit returns
	// ErrQueueFull once MaxQueue requests are waiting, so overload sheds
	// load with an explicit signal (429 at the HTTP layer) instead of
	// queueing without bound and blowing every request's latency. <= 0
	// leaves the queue unbounded.
	MaxQueue int
	// KVBudgetBytes, when positive, caps the shared KV page pool — slots
	// and the prefix cache together — at that many resident bytes (rounded
	// down to whole pages). The budget is a hard guarantee, not a target:
	// the pool never allocates past it (PoolStats.HighWaterBytes <=
	// BudgetBytes always). Under pressure the scheduler degrades in order:
	// unpinned prefix-cache entries are evicted first (the sacrificial
	// tier), then admission of new requests is deferred until worst-case
	// headroom exists, and as a last resort a decoding slot is preempted —
	// its request re-queued carrying the tokens generated so far and
	// restored later by re-prefilling prompt+generated, which by the
	// determinism contract yields output bit-identical to an uninterrupted
	// run. 0 disables the budget (pages allocate on demand).
	KVBudgetBytes int64
}

// DefaultOptions returns the baseline scheduler configuration: 4 slots, no
// EOS token, float KV cache, default prefill chunking.
func DefaultOptions() Options {
	return Options{Slots: 4, EOS: -1, PrefillChunk: infer.DefaultPrefillChunk}
}

// Stats is a point-in-time snapshot of scheduler counters.
type Stats struct {
	// Slots is the pool size; Active the slots currently decoding; Queued
	// the requests awaiting admission.
	Slots, Active, Queued int
	// Submitted / Completed count requests over the scheduler's lifetime.
	Submitted, Completed int64
	// PromptTokens / GeneratedTokens count tokens over the scheduler's
	// lifetime (completed requests only).
	PromptTokens, GeneratedTokens int64
	// KVCacheBytes is the resident KV memory of the shared page pool:
	// every allocated page — referenced by slots and/or the prefix cache,
	// plus warm free-list capacity — counted exactly once.
	KVCacheBytes int64
	// KVUniqueBytes is the resident size of the pages currently referenced
	// by at least one holder (slot or prefix-cache entry), each counted
	// once regardless of how many holders share it. KVLogicalBytes is what
	// the same references would occupy without sharing — every slot's and
	// cache entry's pages counted per holder, the pre-paging memcpy memory
	// model. KVLogicalBytes / KVUniqueBytes is the sharing ratio; KVPages
	// counts the unique in-use pages.
	KVUniqueBytes  int64
	KVLogicalBytes int64
	KVPages        int64
	// PrefillChunk is the admission chunk size in effect.
	PrefillChunk int
	// TTFTSamples counts completed prefills; TTFTp50/TTFTp99 are
	// percentiles of time-to-first-token — submission to last prompt
	// token prefilled — over the most recent ttftWindow requests.
	TTFTSamples      int64
	TTFTp50, TTFTp99 time.Duration
	// ITLSamples counts recorded inter-token gaps; ITLp50/ITLp99 are
	// percentiles of the latency between consecutively emitted tokens of
	// a request (the streaming cadence a client observes), over the most
	// recent itlWindow samples.
	ITLSamples     int64
	ITLp50, ITLp99 time.Duration
	// Cancelled / DeadlineExceeded count requests finished by context
	// cancellation or deadline expiry; Rejected counts Submit calls
	// refused with ErrQueueFull under the MaxQueue bound.
	Cancelled, DeadlineExceeded, Rejected int64
	// DrainTimeouts counts bounded drains (DrainFor) that expired before
	// the scheduler emptied and force-closed the remaining work — a
	// non-zero value means some SIGTERM hit the shutdown deadline instead
	// of finishing gracefully.
	DrainTimeouts int64
	// Preemptions counts slots evicted under KV memory pressure: their
	// requests were re-queued with their generated-so-far tokens and later
	// restored bit-identically (the KVBudgetBytes degradation ladder).
	Preemptions int64
	// AdmissionDeferred counts admission opportunities skipped because a
	// queued request's worst-case KV demand exceeded the pool headroom —
	// one count per queued request per tick with a free slot, so it grows
	// while memory-aware admission is actively holding work back.
	AdmissionDeferred int64
	// Ticks counts scheduler ticks that ran model work — prefill-only ticks
	// included — and DecodeRows the decode rows those ticks' forwards
	// advanced (a row left out on KV starvation is not one): DecodeRows /
	// Ticks is the mean number of decode rows per tick.
	Ticks, DecodeRows int64
	// Panics counts requests whose per-slot tick work panicked; each was
	// isolated to a FinishError for that request (the slot recovered and
	// kept serving). The HTTP layer adds its own handler-recover count on
	// top in /v1/stats.
	Panics int64
	// KVBudgetBytes echoes Options.KVBudgetBytes rounded to whole pages (0
	// = unbounded); KVHighWaterBytes is the maximum resident KV the pool
	// ever held — with a budget set, KVHighWaterBytes <= KVBudgetBytes is
	// the enforced invariant.
	KVBudgetBytes    int64
	KVHighWaterBytes int64
	// MaxQueue echoes Options.MaxQueue; Draining reports a scheduler
	// between Drain and Close.
	MaxQueue int
	Draining bool
	// Prefix-cache counters (all zero when Options.PrefixCacheBytes is 0).
	// PrefixCacheHits / PrefixCacheMisses count admissions whose prompt
	// did / did not start with at least one cached chunk;
	// PrefixCacheHitTokens counts prompt tokens whose prefill was skipped
	// by importing cached KV rows; PrefixCacheBytes / PrefixCacheEntries
	// describe current residency and PrefixCacheEvictions the entries
	// dropped under byte pressure.
	PrefixCacheHits, PrefixCacheMisses int64
	PrefixCacheHitTokens               int64
	PrefixCacheEvictions               int64
	PrefixCacheBytes                   int64
	PrefixCacheEntries                 int
}

// PrefixCacheHitRate returns the fraction of admissions served at least
// partially from the prefix cache (0 when no lookups happened).
func (st Stats) PrefixCacheHitRate() float64 {
	total := st.PrefixCacheHits + st.PrefixCacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.PrefixCacheHits) / float64(total)
}

// KVSharingRatio returns logical over unique KV bytes — how many times
// over the resident pages are referenced. 1 means no sharing; N slots
// fully sharing one prefix approach N. 0 when no pages are in use.
func (st Stats) KVSharingRatio() float64 {
	if st.KVUniqueBytes == 0 {
		return 0
	}
	return float64(st.KVLogicalBytes) / float64(st.KVUniqueBytes)
}

// ttftWindow is the number of recent time-to-first-token samples the
// percentile stats are computed over.
const ttftWindow = 512

// itlWindow is the number of recent inter-token latency samples the
// percentile stats are computed over. Wider than ttftWindow because every
// generated token contributes a sample, not every request.
const itlWindow = 2048

// resumeState carries what a preempted request needs to continue exactly
// where it stopped: the tokens already generated (and already streamed to
// the client — restore must not re-emit them) and the request's private
// RNG object, whose stream position reflects every sample drawn so far.
// Restoring re-prefills prompt+tokens — deterministic prefill reproduces
// the KV rows bit-for-bit — and then decoding continues with the carried
// RNG, so the final output is bit-identical to a run that was never
// preempted (the property TestPreemption* pins against Sequential).
type resumeState struct {
	tokens []int
	rng    *rand.Rand
}

// pending is a queued request with its delivery ticket. resume is non-nil
// only for a preempted request awaiting re-admission.
type pending struct {
	req       Request
	ticket    *Ticket
	submitted time.Time
	resume    *resumeState
}

// slot is one decoding lane. All fields are owned by the scheduler loop
// goroutine (or, inside a tick's forward region, by exactly one work item);
// cache is internally synchronized.
type slot struct {
	sess     *infer.Session
	maxSeq   int
	chunk    int          // prompt tokens admitted per tick
	pageRows int          // KV page granularity (the session pool's rows)
	cache    *prefixCache // nil when prefix caching is disabled
	sampler  infer.Sampler

	active       bool
	prefilled    bool
	published    int // prompt pages offered to the prefix cache so far
	req          Request
	ticket       *Ticket
	rng          *rand.Rand
	tokens       []int
	done         bool
	reason       FinishReason
	err          error
	submitted    time.Time
	resume       *resumeState // non-nil while restoring a preempted request
	effPrompt    []int        // req.Prompt plus resume tokens: what prefill consumes
	starved      bool         // last tick hit ErrPoolExhausted; retrying
	tok          int          // the sampled token this tick's decode row feeds back
	retryPending bool         // tok was emitted but its decode row starved; re-run it, don't re-sample
	panicked     bool         // this tick's work panicked (isolated to FinishError)
	ttft         time.Duration
	ttftPending  bool // a fresh TTFT sample awaits collection
	lastEmit     time.Time
	itl          time.Duration
	itlPending   bool // a fresh inter-token latency sample awaits collection
}

// newSlot wraps a session as an idle slot.
func newSlot(sess *infer.Session, maxSeq, chunk int, cache *prefixCache) *slot {
	return &slot{sess: sess, maxSeq: maxSeq, chunk: chunk, pageRows: sess.Pool().Rows(), cache: cache}
}

// start admits a request into an idle slot. The session is recycled with
// Reset — its page references return to the shared pool and the forward
// arena is kept — which decodes bit-identically to a fresh session. With
// prefix caching enabled, the longest run of cached pages prefixing the
// prompt is adopted by reference into the recycled KV cache (a refcount
// bump per page, no copy) and prefill resumes after it; at least the final
// prompt token is always prefilled for real, because its logits must be
// computed.
//
// A non-nil resume restores a preempted request: prefill consumes
// prompt+generated (deterministic prefill reproduces the evicted KV rows
// bit-for-bit), the already-streamed tokens are NOT re-emitted, the
// carried RNG continues its stream where preemption stopped it, and no
// second TTFT sample is recorded — the client-visible behavior is exactly
// an uninterrupted (if slower) request.
func (sl *slot) start(req Request, ticket *Ticket, submitted time.Time, resume *resumeState) {
	sl.sess.Reset()
	sl.active = true
	sl.prefilled = false
	sl.published = 0
	sl.resume = resume
	sl.effPrompt = req.Prompt
	if resume != nil {
		eff := make([]int, 0, len(req.Prompt)+len(resume.tokens))
		eff = append(eff, req.Prompt...)
		eff = append(eff, resume.tokens...)
		sl.effPrompt = eff
	}
	if sl.cache != nil && len(req.Prompt) > 0 {
		// Cache lookup stays over the original prompt (generated tokens are
		// per-request, never shared), capped so at least the effective
		// prompt's final token is prefilled for real.
		spans, _ := sl.cache.lookup(req.Prompt, len(sl.effPrompt)-1)
		for _, sp := range spans {
			if err := sl.sess.AdoptPages(sp); err != nil {
				// Stop adopting (ErrPoolExhausted from the reservation, or a
				// misaligned span — impossible by construction) and prefill
				// the rest from the last good position.
				break
			}
		}
		// The lookup retained each span for this attach; the session now
		// holds its own page references, so drop the lookup's.
		for _, sp := range spans {
			sp.Release()
		}
		sl.published = sl.sess.Pos() / sl.pageRows
	}
	sl.req = req
	sl.ticket = ticket
	if resume != nil {
		sl.rng = resume.rng
		sl.tokens = resume.tokens
	} else {
		sl.rng = rand.New(rand.NewSource(req.Seed))
		sl.tokens = nil
	}
	sl.done = false
	sl.reason = ""
	sl.err = nil
	sl.submitted = submitted
	sl.ttft = 0
	sl.ttftPending = false
	sl.lastEmit = time.Time{}
	sl.itl = 0
	sl.itlPending = false
	sl.starved = false
	sl.tok = 0
	sl.retryPending = false
	sl.panicked = false
}

// emit appends one generated token, streams it to the ticket (nil for
// Sequential; the channel is buffered to the full token budget, so the
// send never blocks), and stages an inter-token latency sample — the gap
// since the previous emission (or since prefill completion for the first
// token).
//
//aptq:wallclock
func (sl *slot) emit(tok int) {
	sl.tokens = append(sl.tokens, tok) //aptq:ignore noalloc per-request token accumulation: growth is amortized and the buffer is handed off in Result
	if sl.ticket != nil && sl.ticket.tokens != nil {
		sl.ticket.tokens <- tok
	}
	now := time.Now()
	if !sl.lastEmit.IsZero() {
		sl.itl = now.Sub(sl.lastEmit)
		sl.itlPending = true
	}
	sl.lastEmit = now
}

// finish marks the slot's request complete.
func (sl *slot) finish(reason FinishReason, err error) {
	sl.done = true
	sl.reason = reason
	sl.err = err
}

// result snapshots the finished slot's outcome.
func (sl *slot) result() Result {
	return Result{ID: sl.req.ID, Tokens: sl.tokens, FinishReason: sl.reason, Err: sl.err}
}

// work is what a slot's plan step asks of the tick's forward region.
type work int

const (
	workNone    work = iota // nothing to run: the request finished or was cancelled
	workPrefill             // the next prompt chunk: one Session.Append
	workDecode              // one row, sl.tok, of a shared decode forward
)

// plan is the first of the three steps of a slot's tick — plan, run the
// planned work, commit — which are the whole per-request decode semantics.
// A dead context frees the slot here, at the tick boundary (tokens
// generated so far are delivered). Otherwise plan asks for the next prompt
// chunk — at most one per tick, so co-scheduled slots wait for one chunk
// of block forwards, not a whole prompt — or samples and emits the next
// token, runs the finish checks, and asks for that token's decode row.
//
//aptq:noalloc
//aptq:wallclock
func (sl *slot) plan(eos int) work {
	if sl.done {
		return workNone
	}
	if r := ctxFinishReason(sl.req.Ctx); r != "" {
		sl.finish(r, nil)
		return workNone
	}
	if sl.retryPending {
		// sl.tok was sampled and emitted on an earlier tick but its row
		// starved on the KV budget: re-run just the row — the RNG already
		// advanced, so re-sampling would corrupt the stream.
		return workDecode
	}
	if !sl.prefilled {
		if len(sl.req.Prompt) == 0 {
			sl.finish(FinishError, infer.ErrEmptyPrompt)
			return workNone
		}
		return workPrefill
	}
	tok := sl.sampler.Sample(sl.rng, sl.sess.Logits().Row(0), sl.req.Temperature)
	if eos >= 0 && tok == eos {
		sl.finish(FinishEOS, nil)
		return workNone
	}
	for _, st := range sl.req.Stop {
		if tok == st {
			sl.finish(FinishStop, nil)
			return workNone
		}
	}
	sl.emit(tok)
	if len(sl.tokens) >= sl.req.MaxTokens {
		sl.finish(FinishLength, nil)
		return workNone
	}
	if sl.sess.Pos() >= sl.maxSeq {
		sl.finish(FinishContext, nil)
		return workNone
	}
	sl.tok = tok
	return workDecode
}

// prefill runs a planned prompt chunk of the effective prompt: the
// request's prompt plus, when restoring a preempted request, the tokens
// generated before preemption, whose KV rows deterministic prefill
// reproduces bit-for-bit.
//
//aptq:noalloc
func (sl *slot) prefill() error {
	lo := sl.sess.Pos() // effective-prompt tokens consumed so far
	_, err := sl.sess.Append(sl.effPrompt[lo:min(lo+sl.chunk, len(sl.effPrompt))])
	return err
}

// commit folds the outcome of the planned work into the request. Work that
// starved on the KV budget (ErrPoolExhausted) left its session unchanged:
// the slot is marked starved and retries the same work next tick, after
// the scheduler has freed pages. Any other error fails the request.
//
//aptq:noalloc
//aptq:wallclock
func (sl *slot) commit(w work, err error) {
	if w == workNone || sl.done {
		return
	}
	if err != nil {
		if errors.Is(err, infer.ErrPoolExhausted) { //aptq:ignore noalloc errors.Is walks a static chain; cold pressure path, no allocation on the decode steady state
			sl.starved = true
			sl.retryPending = w == workDecode
		} else if rp, ok := err.(*infer.RowPanic); ok {
			sl.fail(rp.Value) //aptq:ignore noalloc formats an error only when a request panics
		} else {
			sl.finish(FinishError, err)
		}
		return
	}
	sl.starved = false
	sl.retryPending = false
	if w == workDecode {
		return
	}
	consumed := sl.sess.Pos()
	// Publish every newly completed prompt page into the cache so the next
	// request sharing the prefix adopts it by reference. Publishing is
	// decoupled from the admission chunk size: the published cursor walks
	// full pages regardless of how prefill ticks chop the prompt.
	// SharePages bumps refcounts on the pages already resident in this slot
	// — no bytes are copied; insert evicts LRU entries past the byte budget.
	// Only pages fully inside the original prompt are published: generated
	// tokens are per-request, never a shareable prefix.
	//
	// A page that is already cached was published by a request that
	// prefilled the same prefix alongside this one (this slot's lookup came
	// before that publication). The slot drops its own byte-identical copy
	// for the cached page: kept, the copy would stay resident — and in the
	// pool's high-water mark — until the slot's next admission, and
	// resident KV would depend on how the two requests interleaved.
	if sl.cache != nil {
		for (sl.published+1)*sl.pageRows <= min(consumed, len(sl.req.Prompt)) {
			hi := (sl.published + 1) * sl.pageRows
			if cached := sl.cache.share(sl.req.Prompt[:hi]); cached != nil {
				sl.sess.ReplacePages(cached)
				cached.Release()
			} else {
				sl.cache.insert(sl.req.Prompt[:hi], sl.sess.SharePages(sl.published*sl.pageRows, hi)) //aptq:ignore noalloc prefix-cache publication runs per prompt page during prefill, never on the decode steady state
			}
			sl.published++
		}
	}
	if consumed < len(sl.effPrompt) {
		return // rest of the prompt admits on later ticks
	}
	sl.prefilled = true
	if sl.resume == nil {
		// First prefill of this request: stamp TTFT. A restore records no
		// second sample — the client saw its first token long ago.
		sl.ttft = time.Since(sl.submitted)
		sl.ttftPending = true
	}
	sl.lastEmit = time.Now() // first token's inter-token gap starts here
	if sl.req.MaxTokens <= 0 {
		sl.finish(FinishLength, nil)
	}
}

// isolate is the deferred recover barrier around one slot's share of a
// tick: a panic there fails that request alone — the slot delivers the
// error and keeps serving (its session is Reset on the next admission, and
// immediately under a budget) — instead of killing the decode loop and
// with it every request on the replica.
func (sl *slot) isolate() {
	if r := recover(); r != nil {
		sl.fail(r)
	}
}

func (sl *slot) fail(recovered any) {
	sl.finish(FinishError, fmt.Errorf("serve: request panicked: %v", recovered))
	sl.panicked = true
}

// tick runs one scheduler tick: every live slot plans, the planned work
// runs in one parallel region, every slot commits. The region's items are
// the prefilling slots' prompt chunks — one item each: a chunk's rows share
// one KV cache — and the decode rows' infer.RowGroups groups, each one
// shared forward; sharing the region keeps a tick from serialising "all
// prefill, then all decode". A decode row's result does not depend on the
// rows it shares a forward with, so a tick over one slot (Sequential) and
// over many are bit-identical per request by construction.
type tick struct {
	// panicHook / forwardPanicHook (tests only, set before any Submit) panic
	// in the plan step of matching requests / make their decode rows panic
	// inside the shared forward.
	panicHook, forwardPanicHook func(Request) bool

	prefills    []*slot // slots running a prompt chunk this tick
	prefillErrs []error
	// rows are the slots with a decode row this tick; sess, toks and errs
	// are their sessions, tokens and per-row results, index-aligned.
	rows   []*slot
	sess   []*infer.Session
	toks   []int
	errs   []error
	groups int // decode groups this tick: infer.RowGroups(len(rows))
}

func newTick(slots int) tick {
	return tick{
		prefills:    make([]*slot, 0, slots),
		prefillErrs: make([]error, slots),
		rows:        make([]*slot, 0, slots),
		sess:        make([]*infer.Session, slots),
		toks:        make([]int, slots),
		errs:        make([]error, slots),
	}
}

// run advances every live slot by one tick and returns the number of
// decode rows its forwards advanced (a row left out because its KV
// reservation starved, or failed by a panic, is not counted). A zero-alloc
// root: the steady-state decode tick is the serving hot path.
//
//aptq:noalloc
func (t *tick) run(live []*slot, eos int) int {
	t.prefills = t.prefills[:0]
	t.rows = t.rows[:0]
	for _, sl := range live {
		switch t.planSlot(sl, eos) {
		case workPrefill:
			t.prefills = append(t.prefills, sl) //aptq:ignore noalloc within the capacity newTick sized to the slot count
		case workDecode:
			n := len(t.rows)
			t.rows = append(t.rows, sl) //aptq:ignore noalloc within the capacity newTick sized to the slot count
			t.sess[n] = sl.sess
			t.toks[n] = sl.tok
			if t.forwardPanicHook != nil && t.forwardPanicHook(sl.req) { //aptq:ignore noalloc test-only injection hook
				t.toks[n] = -1 // no such token: the forward panics embedding the row
			}
		}
	}
	t.groups = infer.RowGroups(len(t.rows))
	if n := len(t.prefills) + t.groups; n == 1 || parallel.Workers() == 1 {
		for i := 0; i < n; i++ {
			t.item(i)
		}
	} else {
		parallel.ForEach(n, t.item)
	}
	for i, sl := range t.prefills {
		t.commitSlot(sl, workPrefill, t.prefillErrs[i])
	}
	advanced := 0
	for i, sl := range t.rows {
		t.commitSlot(sl, workDecode, t.errs[i])
		if t.errs[i] == nil {
			advanced++
		}
	}
	return advanced
}

// planSlot and commitSlot run a slot's plan and commit steps inside its
// recover barrier; a slot whose plan panicked asks for no work.
func (t *tick) planSlot(sl *slot, eos int) (w work) {
	defer sl.isolate()                             //aptq:ignore noalloc the barrier formats an error only when a request panics
	if t.panicHook != nil && t.panicHook(sl.req) { //aptq:ignore noalloc test-only injection hook
		panic("serve: injected test panic")
	}
	return sl.plan(eos)
}

func (t *tick) commitSlot(sl *slot, w work, err error) {
	defer sl.isolate() //aptq:ignore noalloc the barrier formats an error only when a request panics
	sl.commit(w, err)
}

// item runs work item i of the region. Chunks come first: they are the
// longest items, so the groups pack in behind them on the other workers.
// A decode group needs no barrier here: infer re-runs a panicked group's
// rows alone and reports the row at fault as an *infer.RowPanic, which
// commit turns into that request's failure.
func (t *tick) item(i int) {
	if np := len(t.prefills); i >= np {
		n := len(t.rows)
		infer.DecodeRowGroup(t.sess[:n], t.toks[:n], t.errs[:n], t.groups, i-np)
		return
	}
	defer t.prefills[i].isolate() //aptq:ignore noalloc the barrier formats an error only when a request panics
	t.prefillErrs[i] = t.prefills[i].prefill()
}

// Scheduler is the continuous-batching engine. Construct with New; Submit
// is safe for concurrent use; Close drains and joins the decode loop.
type Scheduler struct {
	eos      int
	maxSeq   int
	maxQueue int
	slots    []*slot
	pool     *infer.KVPagePool // shared by every slot session and the prefix cache
	prefix   *prefixCache      // nil when Options.PrefixCacheBytes is 0
	released sync.Once         // Close's one-time page teardown

	blocks      int   // model depth: pages-per-sequence multiplier in demand estimates
	budgetPages int64 // pool page budget (0 = unbounded), cached from the pool
	tick              // the tick's work lists, owned by the decode loop

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []pending
	closed     bool
	draining   bool
	forceDrain bool // expired DrainFor: fail queued + in-flight at the next tick
	stats      Stats
	// ttft is a ring of the most recent time-to-first-token samples
	// (capacity ttftWindow); ttftNext is the ring write cursor. itl is the
	// analogous ring of inter-token latency samples.
	ttft     []time.Duration
	ttftNext int
	itl      []time.Duration
	itlNext  int

	loopDone chan struct{}
}

// New builds a scheduler over m and starts its decode loop. Every slot
// decodes on its own model view, so the weights — float or packed — stay
// resident exactly once.
func New(m *model.Model, opts Options) *Scheduler {
	if opts.Slots <= 0 {
		opts.Slots = DefaultOptions().Slots
	}
	if opts.PrefillChunk <= 0 {
		opts.PrefillChunk = infer.DefaultPrefillChunk
	}
	s := &Scheduler{eos: opts.EOS, maxSeq: m.Cfg.MaxSeq, maxQueue: opts.MaxQueue, tick: newTick(opts.Slots), loopDone: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	// One page pool spans every slot and the prefix cache: pages published
	// by one slot are adopted by reference in any other, and pool stats
	// give the deduplicated resident KV footprint of the whole scheduler.
	s.pool = infer.NewPagePool(m.Cfg.Dim, m.Cfg.MaxSeq)
	if opts.KVBudgetBytes > 0 {
		s.pool.SetBudget(opts.KVBudgetBytes)
		s.budgetPages = s.pool.BudgetPages()
	}
	if opts.PrefixCacheBytes > 0 {
		s.prefix = newPrefixCache(s.pool.Rows(), opts.PrefixCacheBytes)
		// The cache is the budget's sacrificial tier: a starved page lease
		// evicts unpinned cache entries (LRU-first) before giving up.
		s.pool.SetReclaimer(s.prefix.reclaimOne)
	}
	s.blocks = len(m.Blocks)
	for _, v := range m.Views(opts.Slots) {
		s.slots = append(s.slots, newSlot(infer.NewSessionPooled(v, s.pool, opts.KVQuantBits), m.Cfg.MaxSeq, opts.PrefillChunk, s.prefix))
	}
	s.stats.Slots = opts.Slots
	s.stats.PrefillChunk = opts.PrefillChunk
	s.stats.MaxQueue = opts.MaxQueue
	s.stats.KVBudgetBytes = s.pool.BudgetBytes()
	go s.loop() //aptq:ignore detlint the scheduler loop is the one sanctioned goroutine: requests only observe it through Ticket channels, and decode order is pinned by the admission queue, not the schedule
	return s
}

// tokenStreamCap bounds the buffer of a ticket's token channel: large
// enough that the scheduler can never block on it (a request emits at most
// min(MaxTokens, MaxSeq) tokens), small enough that an absurd MaxTokens
// doesn't allocate an absurd buffer.
func (s *Scheduler) tokenStreamCap(maxTokens int) int {
	n := maxTokens
	if n > s.maxSeq {
		n = s.maxSeq
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Submit enqueues a request and returns its ticket. It never blocks on
// decoding; admission happens the moment a slot frees up, highest
// Priority first. With Options.MaxQueue set, a full queue rejects with
// ErrQueueFull instead of growing without bound; after Drain / Close,
// Submit reports ErrDraining / ErrClosed.
//
//aptq:wallclock
func (s *Scheduler) Submit(req Request) (*Ticket, error) {
	t := &Ticket{ch: make(chan Result, 1), tokens: make(chan int, s.tokenStreamCap(req.MaxTokens))}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.draining {
		return nil, ErrDraining
	}
	if s.maxQueue > 0 && len(s.queue) >= s.maxQueue {
		s.stats.Rejected++
		return nil, ErrQueueFull
	}
	if s.budgetPages > 0 && s.demandPages(req) > s.budgetPages {
		s.stats.Rejected++
		return nil, ErrOverBudget
	}
	s.queue = append(s.queue, pending{req: req, ticket: t, submitted: time.Now()})
	s.stats.Submitted++
	s.stats.Queued = len(s.queue)
	s.cond.Signal()
	return t, nil
}

// GenerateAll submits every request and waits for all results, returned in
// request order. A convenience for batch-style callers (benchmarks, demos).
func (s *Scheduler) GenerateAll(reqs []Request) ([]Result, error) {
	tickets := make([]*Ticket, len(reqs))
	for i, r := range reqs {
		t, err := s.Submit(r)
		if err != nil {
			return nil, err
		}
		tickets[i] = t
	}
	out := make([]Result, len(reqs))
	for i, t := range tickets {
		out[i] = t.Wait()
	}
	return out, nil
}

// Stats returns a snapshot of the scheduler counters, including
// time-to-first-token percentiles over the recent sample window.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	if len(s.ttft) > 0 {
		sorted := append([]time.Duration(nil), s.ttft...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		st.TTFTp50 = percentile(sorted, 50)
		st.TTFTp99 = percentile(sorted, 99)
	}
	if len(s.itl) > 0 {
		sorted := append([]time.Duration(nil), s.itl...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		st.ITLp50 = percentile(sorted, 50)
		st.ITLp99 = percentile(sorted, 99)
	}
	st.Draining = s.draining
	ps := s.pool.Stats()
	st.KVBudgetBytes = ps.BudgetBytes
	st.KVHighWaterBytes = ps.HighWaterBytes
	if s.prefix != nil {
		pc := s.prefix.snapshot()
		st.PrefixCacheHits = pc.Hits
		st.PrefixCacheMisses = pc.Misses
		st.PrefixCacheHitTokens = pc.HitTokens
		st.PrefixCacheEvictions = pc.Evictions
		st.PrefixCacheBytes = pc.Bytes
		st.PrefixCacheEntries = pc.Entries
	}
	return st
}

// percentile returns the nearest-rank p-th percentile of a sorted sample.
func percentile(sorted []time.Duration, p int) time.Duration {
	idx := (p*len(sorted) + 99) / 100 // ceil(p*n/100), 1-based nearest rank
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// recordTTFT appends one time-to-first-token sample to the ring. Caller
// holds mu.
func (s *Scheduler) recordTTFT(d time.Duration) {
	s.stats.TTFTSamples++
	if len(s.ttft) < ttftWindow {
		s.ttft = append(s.ttft, d)
		return
	}
	s.ttft[s.ttftNext] = d
	s.ttftNext = (s.ttftNext + 1) % ttftWindow
}

// recordITL appends one inter-token latency sample to the ring. Caller
// holds mu.
func (s *Scheduler) recordITL(d time.Duration) {
	s.stats.ITLSamples++
	if len(s.itl) < itlWindow {
		s.itl = append(s.itl, d)
		return
	}
	s.itl[s.itlNext] = d
	s.itlNext = (s.itlNext + 1) % itlWindow
}

// countFinish bumps the cancellation counters for context-terminated
// requests. Caller holds mu.
func (s *Scheduler) countFinish(r FinishReason) {
	switch r {
	case FinishCancelled:
		s.stats.Cancelled++
	case FinishDeadline:
		s.stats.DeadlineExceeded++
	}
}

// demandPages estimates a request's worst-case KV page demand across all
// blocks: the prompt plus every generated token except the last (which is
// emitted but never fed back), clamped to the context limit, rounded up to
// whole pages. Memory-aware admission compares this against pool headroom,
// and Submit rejects requests whose demand exceeds the entire budget.
func (s *Scheduler) demandPages(req Request) int64 {
	rows := len(req.Prompt)
	if req.MaxTokens > 0 {
		rows += req.MaxTokens - 1
	}
	if rows > s.maxSeq {
		rows = s.maxSeq
	}
	pageRows := s.pool.Rows()
	pages := (rows + pageRows - 1) / pageRows
	return int64(pages) * int64(s.blocks)
}

// weaker orders slots for victim selection: lower priority first, then the
// youngest (latest-submitted) of a class, then the higher slot index —
// a total deterministic order, so a preemption storm converges instead of
// thrashing, and the oldest surviving request always makes progress.
func weaker(a, b *slot) bool {
	if a.req.Priority != b.req.Priority {
		return a.req.Priority < b.req.Priority
	}
	if !a.submitted.Equal(b.submitted) {
		return a.submitted.After(b.submitted)
	}
	return false // equal keys: keep the earlier-indexed candidate
}

// preemptLocked evicts victim under KV pressure: its pages return to the
// pool (Reset), and its request re-queues at the front carrying the tokens
// generated so far plus its RNG, to be restored by start() on re-admission
// bit-identically to a run that was never preempted. Caller holds mu; the
// caller decrements nActive.
func (s *Scheduler) preemptLocked(victim *slot) {
	p := pending{req: victim.req, ticket: victim.ticket, submitted: victim.submitted, resume: victim.resume}
	if len(victim.tokens) > 0 {
		p.resume = &resumeState{tokens: victim.tokens, rng: victim.rng}
	}
	victim.sess.Reset()
	victim.active = false
	victim.ticket = nil
	victim.resume = nil
	victim.effPrompt = nil
	victim.starved = false
	victim.retryPending = false
	s.queue = append(s.queue, pending{})
	copy(s.queue[1:], s.queue)
	s.queue[0] = p
	s.stats.Preemptions++
}

// PoolStats exposes the shared KV page pool's residency counters — unique
// bytes, free pages, and the high-watermark the budget invariant
// (HighWaterBytes <= BudgetBytes) is asserted against.
func (s *Scheduler) PoolStats() infer.PoolStats { return s.pool.Stats() }

// Drain stops admission and blocks until every queued and in-flight
// request has finished — the graceful-redeploy half of shutdown: a load
// balancer stops routing here (Submit reports ErrDraining, the HTTP layer
// turns /healthz unhealthy) while accepted work runs to completion. The
// decode loop and Stats stay alive until Close. Idempotent and safe for
// concurrent use.
func (s *Scheduler) Drain() { s.DrainFor(0) }

// DrainFor is Drain with a shutdown deadline: admission stops immediately,
// and queued + in-flight requests get up to timeout to finish on their
// own. If the scheduler empties in time it returns true — byte-for-byte
// the graceful Drain. Past the deadline it force-closes: every queued
// request resolves immediately and every in-flight request finishes at its
// next tick boundary, all with FinishError and ErrDrainTimeout (their
// tickets still resolve — no client is left hanging on a wedged shutdown),
// Stats.DrainTimeouts is bumped, and DrainFor returns false once the last
// forced request has been delivered. timeout <= 0 means no deadline. The
// force path fires at a tick boundary, so it bounds scheduling delay
// (slots that never free, a queue that never empties), not the duration of
// a single mid-flight kernel call.
//
//aptq:wallclock
func (s *Scheduler) DrainFor(timeout time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	if timeout <= 0 {
		for s.stats.Active > 0 || len(s.queue) > 0 {
			s.cond.Wait()
		}
		return true
	}
	// The loop only broadcasts when it goes idle, so arm a one-shot waker
	// to bound the cond wait at the deadline.
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	for (s.stats.Active > 0 || len(s.queue) > 0) && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	if s.stats.Active == 0 && len(s.queue) == 0 {
		return true
	}
	// Deadline expired with work still in flight: force-close. The decode
	// loop applies forceDrain at its next tick top (it is ticking, not
	// waiting — Active > 0), then the idle broadcast below releases us.
	s.stats.DrainTimeouts++
	s.forceDrain = true
	s.cond.Broadcast()
	for s.stats.Active > 0 || len(s.queue) > 0 {
		s.cond.Wait()
	}
	return false
}

// Close stops admission, drains every queued and in-flight request (their
// tickets still resolve), joins the decode loop, and releases every KV
// page reference — slot sessions and prefix-cache entries both — back to
// the shared pool, after which the pool reports zero pages in use (the
// refcount-leak invariant the tests pin). Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.loopDone
	s.released.Do(func() {
		if s.prefix != nil {
			s.prefix.purge()
		}
		for _, sl := range s.slots {
			sl.sess.Reset()
		}
	})
}

// loop is the decode loop: admit into free slots, run one tick over the
// live slots, deliver finished results, repeat. A freed slot is refilled
// at the top of the very next tick, so no slot idles while requests queue.
func (s *Scheduler) loop() {
	defer close(s.loopDone)
	nActive := 0
	live := make([]*slot, 0, len(s.slots))
	for {
		s.mu.Lock()
		for !s.closed && len(s.queue) == 0 && nActive == 0 {
			s.cond.Wait()
		}
		// Resolve queued requests whose context died before admission: they
		// finish with FinishCancelled / FinishDeadline without ever
		// occupying a slot or consuming a decode tick.
		if len(s.queue) > 0 {
			kept := s.queue[:0]
			for _, p := range s.queue {
				if r := ctxFinishReason(p.req.Ctx); r != "" {
					res := Result{ID: p.req.ID, FinishReason: r}
					if p.resume != nil {
						res.Tokens = p.resume.tokens // preempted mid-flight: deliver what was generated
					}
					p.ticket.deliver(res)
					s.countFinish(r)
					s.stats.Completed++
					continue
				}
				kept = append(kept, p)
			}
			for i := len(kept); i < len(s.queue); i++ {
				s.queue[i] = pending{} // drop ticket references past the kept run
			}
			s.queue = kept
		}
		// An expired bounded drain (DrainFor) force-closes at the tick
		// boundary: queued requests resolve immediately, in-flight slots are
		// marked finished and delivered by this tick's post-advance sweep.
		if s.forceDrain {
			for i, p := range s.queue {
				res := Result{ID: p.req.ID, FinishReason: FinishError, Err: ErrDrainTimeout}
				if p.resume != nil {
					res.Tokens = p.resume.tokens
				}
				p.ticket.deliver(res)
				s.stats.Completed++
				s.queue[i] = pending{}
			}
			s.queue = s.queue[:0]
			for _, sl := range s.slots {
				if sl.active && !sl.done {
					sl.finish(FinishError, ErrDrainTimeout)
				}
			}
		}
		// Memory-aware admission: with a budget, a request is only admitted
		// while the pool has worst-case headroom for it — budget minus pages
		// in use, plus what evicting the reclaimable (sole-held) part of the
		// prefix cache could free: it is the sacrificial tier, but entries
		// pinned by live slots free nothing, and crediting them would
		// re-admit preempted requests into a still-full pool and thrash.
		// Headroom is a point-in-time estimate, not a reservation:
		// already-admitted slots keep growing after the check, which is
		// exactly what preemption backstops.
		headroom := int64(-1) // sentinel: unbudgeted, everything admits
		if s.budgetPages > 0 {
			ps := s.pool.Stats()
			headroom = s.budgetPages - ps.PagesInUse
			if s.prefix != nil {
				headroom += s.prefix.reclaimableBytes() / s.pool.PageBytes()
			}
		}
		for _, sl := range s.slots {
			if sl.active || len(s.queue) == 0 {
				continue
			}
			// Admit the highest-priority queued request that fits the
			// headroom; the queue is in arrival order, so the first maximum
			// is the oldest of its class.
			best := -1
			for i := range s.queue {
				if headroom >= 0 && s.demandPages(s.queue[i].req) > headroom {
					s.stats.AdmissionDeferred++
					continue
				}
				if best < 0 || s.queue[i].req.Priority > s.queue[best].req.Priority {
					best = i
				}
			}
			if best < 0 {
				// Every queued request was deferred on memory. If nothing is
				// running, defer no further — admit the best candidate anyway
				// (reclaim and preemption bound its actual usage) so the
				// scheduler always makes progress.
				if nActive > 0 {
					break
				}
				best = 0
				for i := 1; i < len(s.queue); i++ {
					if s.queue[i].req.Priority > s.queue[best].req.Priority {
						best = i
					}
				}
			}
			p := s.queue[best]
			copy(s.queue[best:], s.queue[best+1:])
			s.queue[len(s.queue)-1] = pending{}
			s.queue = s.queue[:len(s.queue)-1]
			if headroom >= 0 {
				headroom -= s.demandPages(p.req) // may go negative on a forced admission
			}
			sl.start(p.req, p.ticket, p.submitted, p.resume)
			nActive++
		}
		s.stats.Queued = len(s.queue)
		s.stats.Active = nActive
		if nActive == 0 && len(s.queue) == 0 {
			s.cond.Broadcast() // wake Drain waiters: the scheduler is idle
		}
		drained := s.closed && len(s.queue) == 0
		s.mu.Unlock()

		if nActive == 0 {
			if drained {
				return
			}
			continue
		}

		live = live[:0]
		for _, sl := range s.slots {
			if sl.active {
				live = append(live, sl)
			}
		}
		// Each live slot advances one token (or one prompt chunk). A work
		// item touches only its own slots and a decode row's result does not
		// depend on its group: bit-deterministic at any worker count.
		decodeRows := s.run(live, s.eos)

		// KV accounting, shared pages counted once: logical bytes sum every
		// holder's references (slots here; the prefix cache's own logical
		// bytes are added under the lock below), unique bytes come from the
		// pool, which sees each page exactly once however many holders
		// share it.
		var logicalBytes int64
		for _, sl := range s.slots {
			logicalBytes += int64(sl.sess.KVCacheBytes())
		}
		ps := s.pool.Stats()
		s.mu.Lock()
		s.stats.Ticks++
		s.stats.DecodeRows += int64(decodeRows)
		freed := false // a finished slot returned its pages in this sweep
		for _, sl := range live {
			if sl.panicked {
				s.stats.Panics++
				sl.panicked = false
			}
			if sl.ttftPending {
				s.recordTTFT(sl.ttft)
				sl.ttftPending = false
			}
			if sl.itlPending {
				s.recordITL(sl.itl)
				sl.itlPending = false
			}
			if !sl.done {
				continue
			}
			sl.ticket.deliver(sl.result())
			s.countFinish(sl.reason)
			s.stats.Completed++
			s.stats.PromptTokens += int64(len(sl.req.Prompt))
			s.stats.GeneratedTokens += int64(len(sl.tokens))
			sl.active = false
			sl.ticket = nil
			nActive--
			if s.budgetPages > 0 {
				// Under a budget, a finished slot's pages return to the pool
				// now instead of lazily on its next admission: idle slots must
				// not hoard budget other slots are starving for.
				sl.sess.Reset()
				freed = true
			}
		}
		// Preemption, the budget's last resort: a slot that could not lease
		// a page this tick (reclaim included) frees memory by evicting the
		// weakest active slot — lowest priority, then youngest — whose
		// request re-queues at the front carrying its generated tokens, to
		// be restored bit-identically later. One victim per tick: freeing
		// one slot's pages typically unstarves several, and survivors retry
		// next tick. If the starved slot is the only one running, there is
		// nothing left to preempt or reclaim — it fails with the pool error
		// (unreachable when admission is on: Submit rejects any request
		// whose worst case exceeds the whole budget) — unless a slot finished
		// this very tick: it still held its pages while the starved work ran,
		// they are back in the pool now, and the starved slot gets one retry
		// against them (if they are not enough it starves again next tick,
		// when nothing finished, and fails then).
		if s.budgetPages > 0 {
			var starved *slot
			for _, sl := range s.slots {
				if sl.active && sl.starved {
					starved = sl
					break
				}
			}
			if starved != nil {
				var victim *slot
				actives := 0
				for _, sl := range s.slots {
					if !sl.active {
						continue
					}
					actives++
					if victim == nil || weaker(sl, victim) {
						victim = sl
					}
				}
				if actives > 1 {
					s.preemptLocked(victim)
					nActive--
				} else if !freed {
					starved.finish(FinishError, infer.ErrPoolExhausted) // delivered next tick
				}
			}
		}
		s.stats.Active = nActive
		s.stats.Queued = len(s.queue)
		if s.prefix != nil {
			logicalBytes += s.prefix.snapshot().Bytes
		}
		s.stats.KVCacheBytes = ps.UniqueBytes + ps.FreePages*s.pool.PageBytes()
		s.stats.KVUniqueBytes = ps.UniqueBytes
		s.stats.KVLogicalBytes = logicalBytes
		s.stats.KVPages = ps.PagesInUse
		if nActive == 0 && len(s.queue) == 0 {
			s.cond.Broadcast() // wake Drain waiters: the scheduler is idle
		}
		s.mu.Unlock()
	}
}

// Sequential decodes one request on a fresh single-slot session over m —
// the reference semantics the Scheduler reproduces bit-identically for
// every request regardless of slot count, worker count, or co-scheduled
// traffic. opts supplies the EOS token and KV quantization; Slots is
// ignored. The session runs on its own view of m, so concurrent
// Sequential calls (and a live Scheduler on the same model) never race on
// forward scratch state.
//
//aptq:wallclock
func Sequential(m *model.Model, req Request, opts Options) Result {
	v := m.View()
	var sess *infer.Session
	if opts.KVQuantBits > 0 {
		sess = infer.NewSessionKVQuant(v, opts.KVQuantBits)
	} else {
		sess = infer.NewSession(v)
	}
	chunk := opts.PrefillChunk
	if chunk <= 0 {
		chunk = infer.DefaultPrefillChunk
	}
	sl := newSlot(sess, m.Cfg.MaxSeq, chunk, nil)
	sl.start(req, nil, time.Now(), nil)
	tk := newTick(1)
	live := []*slot{sl}
	for !sl.done {
		tk.run(live, opts.EOS)
	}
	return sl.result()
}
