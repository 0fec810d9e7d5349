// The block forward: the one code path every token takes through the
// model. A forward runs T rows through every decoder block — matrix-matrix
// projections (which decode each packed weight row once for all T rows),
// multi-row norms and MLP — while RoPE / learned positions, the KV append,
// KV quantization and causal attention run per row against that row's own
// sequence: every row carries its session and its absolute position.
// Append feeds it T consecutive rows of one session (a prompt chunk);
// DecodeRows (decode.go) one row from each of B sessions (a decode tick).
// Rows are independent and every output element keeps its ascending-k
// accumulation order in both the 4-row-blocked and single-row kernel loops,
// so a row's logits and KV bytes do not depend on which rows share its
// forward — the property the batch-composition tests pin down.
package infer

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// DefaultPrefillChunk is the prompt chunk size Prefill uses: large enough
// to amortize dispatch and packed weight-row decode across the chunk,
// small enough that a serving scheduler admitting a long prompt
// chunk-by-chunk keeps its decode ticks responsive.
const DefaultPrefillChunk = 16

// chunkScratch is the reusable arena of the block forward: the rows being
// forwarded (session, position, token) plus every T x Dim (and T x FF)
// intermediate and the per-row attention score/probability rows. A session
// allocates one on first use and keeps it across Reset; a forward over
// several sessions runs on the arena of its first row's session.
type chunkScratch struct {
	cap int // allocated rows

	// The rows of the current forward, index-aligned: row t belongs to
	// sess[t], sits at absolute position pos[t] of that sequence and
	// carries token ids[t]. Backed by cap-sized arrays.
	sess []*Session
	pos  []int
	ids  []int

	// The intermediates, allocated at cap rows and held by value: each
	// forward re-slices them in place to its T rows (setRows), so a forward
	// whose row count differs from the previous one's allocates nothing.
	x, attnIn, q, k, v, ctx, proj tensor.Mat // T x dim
	h1, h2                        tensor.Mat // T x ff
	// normed and logits are the final norm and head outputs of tail, rows
	// [from, T) of x: the rows whose logits the forward reports.
	tail, normed, logits tensor.Mat
	scores, probs        *tensor.Mat // cap x maxSeq, row t owned by forward row t
}

func newChunkScratch(cfg model.Config, rows int) *chunkScratch {
	mat := func(cols int) tensor.Mat { return *tensor.New(rows, cols) }
	return &chunkScratch{
		cap:    rows,
		sess:   make([]*Session, 0, rows),
		pos:    make([]int, 0, rows),
		ids:    make([]int, 0, rows),
		x:      mat(cfg.Dim),
		attnIn: mat(cfg.Dim),
		q:      mat(cfg.Dim),
		k:      mat(cfg.Dim),
		v:      mat(cfg.Dim),
		ctx:    mat(cfg.Dim),
		proj:   mat(cfg.Dim),
		h1:     mat(cfg.FF),
		h2:     mat(cfg.FF),
		normed: mat(cfg.Dim),
		logits: mat(cfg.Vocab),
		scores: tensor.New(rows, cfg.MaxSeq),
		probs:  tensor.New(rows, cfg.MaxSeq),
	}
}

// rowsView returns rows [lo, hi) of b as a value (tensor.Mat.SliceRows
// without the allocation).
func rowsView(b *tensor.Mat, lo, hi int) tensor.Mat {
	return tensor.Mat{Rows: hi - lo, Cols: b.Cols, Data: b.Data[lo*b.Cols : hi*b.Cols]}
}

// setRows re-slices the intermediates for a forward of T rows that reports
// the logits of rows [from, T).
func (sc *chunkScratch) setRows(T, from int) {
	for _, m := range [...]*tensor.Mat{&sc.x, &sc.attnIn, &sc.q, &sc.k, &sc.v, &sc.ctx, &sc.proj, &sc.h1, &sc.h2} {
		m.Rows, m.Data = T, m.Data[:T*m.Cols]
	}
	for _, m := range [...]*tensor.Mat{&sc.normed, &sc.logits} {
		m.Rows, m.Data = T-from, m.Data[:(T-from)*m.Cols]
	}
	sc.tail = rowsView(&sc.x, from, T)
}

// ensureScratch returns the session's arena emptied for a forward of up to
// T rows, (re)allocating only when T exceeds the current capacity.
func (s *Session) ensureScratch(T int) *chunkScratch {
	if s.scratch == nil || s.scratch.cap < T {
		capRows := T
		if capRows < DefaultPrefillChunk && s.m.Cfg.MaxSeq >= DefaultPrefillChunk {
			capRows = DefaultPrefillChunk
		}
		s.scratch = newChunkScratch(s.m.Cfg, capRows)
	}
	sc := s.scratch
	sc.sess = sc.sess[:0]
	sc.pos = sc.pos[:0]
	sc.ids = sc.ids[:0]
	return sc
}

// add queues one row: token id at absolute position pos of s's sequence.
func (sc *chunkScratch) add(s *Session, pos, id int) {
	sc.sess = append(sc.sess, s) //aptq:ignore noalloc within the capacity ensureScratch sized
	sc.pos = append(sc.pos, pos) //aptq:ignore noalloc within the capacity ensureScratch sized
	sc.ids = append(sc.ids, id)  //aptq:ignore noalloc within the capacity ensureScratch sized
}

// admit checks that n more tokens fit the context and reserves their KV
// rows in every block — the two ways a forward can fail, both before any
// state is touched, so a refused session is bit-for-bit unchanged and an
// ErrPoolExhausted call may be retried verbatim once pages are freed.
func (s *Session) admit(n int) error {
	if s.pos+n > s.m.Cfg.MaxSeq {
		return fmt.Errorf("infer: sequence length %d exceeds MaxSeq %d", s.pos+n, s.m.Cfg.MaxSeq) //aptq:ignore noalloc cold error path: an out-of-budget request never reaches the forward steady state
	}
	return s.reserveKV(n)
}

// Append consumes tokens as one batched chunk — T consecutive rows of this
// session through one block forward, with a bulk KV append — and returns
// the next-token logits after the last appended token. It is bit-identical
// to calling Step for each token in order, at any worker count.
//
// The returned matrix is owned by the session and overwritten by its next
// Append/Step/Prefill; clone it to retain it past that. On error the
// session is unchanged: the length check and the KV reservation both run
// before any state is touched, so a failed Append never half-advances the
// sequence — an ErrPoolExhausted Append may be retried verbatim once the
// scheduler frees pages.
//
//aptq:noalloc
func (s *Session) Append(tokens []int) (*tensor.Mat, error) {
	if len(tokens) == 0 {
		return nil, ErrEmptyPrompt
	}
	if err := s.admit(len(tokens)); err != nil {
		return nil, err
	}
	sc := s.ensureScratch(len(tokens)) //aptq:ignore noalloc the arena is allocated once and regrown only when a wider forward arrives
	for t, id := range tokens {
		sc.add(s, s.pos+t, id)
	}
	sc.forward(len(tokens) - 1)
	return s.logits, nil
}

// forward runs the queued rows through the model, appends each row's
// key/value to its session's caches, advances every session by its rows,
// and writes the next-token logits of rows [from, T) into their sessions'
// logits buffers. The caller has admitted every row. A panic mid-forward
// (a poisoned layer, an out-of-range token id) rewinds every session to
// its pre-call position on the way out, so the rows can be re-run.
//
//aptq:noalloc
func (sc *chunkScratch) forward(from int) {
	T := len(sc.sess)
	m := sc.sess[0].m
	sc.setRows(T, from)
	done := false
	defer sc.rewindUnless(&done)
	m.EmbedRowsInto(&sc.x, sc.ids, sc.pos)
	for bi, b := range m.Blocks {
		sc.chunkBlock(b, bi)
	}
	m.Norm.ForwardInto(&sc.normed, &sc.tail)
	m.Head.ForwardInto(&sc.logits, &sc.normed)
	for t := from; t < T; t++ {
		copy(sc.sess[t].logits.Data, sc.logits.Row(t-from))
	}
	for _, s := range sc.sess {
		s.pos++
	}
	done = true
}

// rewindUnless rolls every session of an unfinished forward back to the
// position of its first queued row (rows of one session are queued in
// ascending position, so the reverse walk ends on the smallest).
func (sc *chunkScratch) rewindUnless(done *bool) {
	if *done {
		return
	}
	for t := len(sc.sess) - 1; t >= 0; t-- {
		sc.sess[t].rewind(sc.pos[t])
	}
}

// chunkBlock runs decoder block bi over the queued rows, with the same
// per-element operation order as nn.Block.Forward (x + attnOut, then
// h + mlpOut), so the residual stream is bit-identical to it.
func (sc *chunkScratch) chunkBlock(b *nn.Block, bi int) {
	b.AttnNorm.ForwardInto(&sc.attnIn, &sc.x)
	sc.chunkAttention(b.Attn, bi)
	tensor.AddInPlace(&sc.x, &sc.proj) // x = x + attnOut
	// attnIn is free once attention ran; reuse it for the MLP norm output.
	b.MLPNorm.ForwardInto(&sc.attnIn, &sc.x)
	b.MLP.ForwardInto(&sc.proj, &sc.attnIn, &sc.h1, &sc.h2)
	tensor.AddInPlace(&sc.x, &sc.proj) // x = x + mlpOut
}

// attnRowGrain sizes the parallel chunks of the attention row fan-out so
// one chunk carries roughly 1<<15 multiply-adds (the tensor kernels'
// sizing rule).
func attnRowGrain(opsPerRow int) int {
	if opsPerRow <= 0 {
		return 1
	}
	g := (1 << 15) / opsPerRow
	if g < 1 {
		g = 1
	}
	return g
}

// chunkAttention computes causal attention for all queued rows — appending
// each row's key and value to its own session's block-bi cache first — and
// writes WO's projection of the context into sc.proj. Row t attends to
// positions [0, pos[t]] of its own sequence. Rows partition across workers
// and each row owns its scores/probs scratch and its output row, so the
// fan-out is bit-deterministic at any worker count.
func (sc *chunkScratch) chunkAttention(attn *nn.Attention, bi int) {
	attn.WQ.ForwardInto(&sc.q, &sc.attnIn)
	attn.WK.ForwardInto(&sc.k, &sc.attnIn)
	attn.WV.ForwardInto(&sc.v, &sc.attnIn)
	if attn.Rope != nil {
		attn.Rope.ApplyRows(&sc.q, sc.pos)
		attn.Rope.ApplyRows(&sc.k, sc.pos)
	}
	horizon := 0
	for t, s := range sc.sess {
		krow, vrow := rowsView(&sc.k, t, t+1), rowsView(&sc.v, t, t+1)
		if s.kvQuant != nil {
			// Per-token grids: each row quantizes against its own scale.
			s.kvQuant.QuantizeInPlace(&krow)
			s.kvQuant.QuantizeInPlace(&vrow)
		}
		s.caches[bi].appendRow(krow.Data, vrow.Data)
		horizon += sc.pos[t] + 1
	}

	T := len(sc.sess)
	if T == 1 || parallel.Workers() == 1 {
		sc.attnRowRange(attn, bi, 0, T)
	} else {
		// Average attention cost per row: one dot and one axpy over every
		// attended position per head, about 2*dim*horizon multiply-adds.
		grain := attnRowGrain(2 * attn.Dim * (horizon / T))
		parallel.For(T, grain, func(lo, hi int) {
			sc.attnRowRange(attn, bi, lo, hi)
		})
	}
	attn.WO.ForwardInto(&sc.proj, &sc.ctx)
}

// attnRowRange computes the attention context of rows [lo, hi), each
// against its own session's block-bi cache.
func (sc *chunkScratch) attnRowRange(attn *nn.Attention, bi, lo, hi int) {
	heads, hd := attn.Heads, attn.HeadDim
	invSqrt := 1 / math.Sqrt(float64(hd))
	for t := lo; t < hi; t++ {
		c := sc.sess[t].caches[bi]
		n := sc.pos[t] + 1 // causal horizon of row t
		scores := sc.scores.Row(t)[:n]
		probs := sc.probs.Row(t)[:n]
		ctxRow := sc.ctx.Row(t)
		for j := range ctxRow {
			ctxRow[j] = 0
		}
		qrow := sc.q.Row(t)
		for h := 0; h < heads; h++ {
			lo2 := h * hd
			qh := qrow[lo2 : lo2+hd]
			for u := 0; u < n; u++ {
				scores[u] = tensor.Dot(qh, c.kRow(u)[lo2:lo2+hd]) * invSqrt
			}
			tensor.Softmax(probs, scores)
			out := ctxRow[lo2 : lo2+hd]
			for u := 0; u < n; u++ {
				tensor.Axpy(probs[u], c.vRow(u)[lo2:lo2+hd], out)
			}
		}
	}
}
