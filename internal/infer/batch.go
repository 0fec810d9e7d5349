// Batched incremental decoding: N KV-cached sessions advancing in
// lockstep, one shared block forward per worker at every step (a
// DecodeRowGroup each). Each session runs on its own model view
// (model.Model.View), so all sessions share one resident copy of the
// weights — float or packed — while owning their KV caches. With
// per-sequence RNG streams the batched output is bit-identical to running
// the N sessions independently, regardless of the worker count: a row's
// result does not depend on the batch it rides in.
package infer

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Batch runs N concurrent KV-cached decoding sessions over shared model
// weights. Construct with NewBatch, feed with Step (prefilling through
// Session(i)), or use Generate for the full sample-and-feed loop.
type Batch struct {
	sessions []*Session
	// logits[i] is session i's own logits buffer, errs the per-row results
	// of the latest step: both reused, so the decode loop allocates nothing.
	logits []*tensor.Mat
	errs   []error
}

// NewBatch creates n decoding sessions over views of m. The weights are
// shared; each session owns its caches, so the sessions may advance
// concurrently.
func NewBatch(m *model.Model, n int) *Batch {
	if n <= 0 {
		panic(fmt.Sprintf("infer: batch of %d sessions", n))
	}
	b := &Batch{sessions: make([]*Session, n), logits: make([]*tensor.Mat, n), errs: make([]error, n)}
	for i, v := range m.Views(n) {
		b.sessions[i] = NewSession(v)
		b.logits[i] = b.sessions[i].logits
	}
	return b
}

// Size returns the number of sessions in the batch.
func (b *Batch) Size() int { return len(b.sessions) }

// Session returns the i-th underlying session (for inspection; stepping it
// directly while also using the batch APIs is the caller's responsibility).
func (b *Batch) Session(i int) *Session { return b.sessions[i] }

// Reset clears every session's cache for a new batch of sequences.
func (b *Batch) Reset() {
	for _, s := range b.sessions {
		s.Reset()
	}
}

// decodeRows advances sess[i] by tokens[i] for every i: one
// DecodeRowGroup, a shared forward, per worker.
func decodeRows(sess []*Session, tokens []int, errs []error) {
	groups := RowGroups(len(sess))
	if groups == 1 {
		DecodeRowGroup(sess, tokens, errs, 1, 0)
		return
	}
	parallel.ForEach(groups, func(g int) {
		DecodeRowGroup(sess, tokens, errs, groups, g)
	})
}

// Step consumes one token per session through shared forwards and returns
// each session's next-token logits (session-owned: overwritten by the next
// Step). Any failing sequence fails the whole call with the lowest-index
// error.
func (b *Batch) Step(tokens []int) ([]*tensor.Mat, error) {
	if len(tokens) != len(b.sessions) {
		return nil, fmt.Errorf("infer: %d tokens for a batch of %d sessions", len(tokens), len(b.sessions))
	}
	decodeRows(b.sessions, tokens, b.errs)
	for _, err := range b.errs {
		if err != nil {
			return nil, err
		}
	}
	return b.logits, nil
}

// Generate samples n tokens per sequence after the prompts at the given
// temperature (0 = greedy), advancing all sequences in lockstep with one
// shared forward per worker per step. Sequence i draws from its own RNG
// stream seeded seed+i, so the output is bit-identical to running
// Session.Generate independently per sequence with rand.NewSource(seed+i)
// — at any worker count.
//
// Errors are per sequence: errs[i] holds sequence i's failure (e.g.
// ErrEmptyPrompt, MaxSeq overflow) and tokens[i] the tokens it completed
// before failing, while every other sequence decodes to the end
// unaffected. The final error is reserved for batch-level misuse (prompt
// count mismatch).
func (b *Batch) Generate(seed int64, prompts [][]int, n int, temperature float64) (tokens [][]int, errs []error, err error) {
	if len(prompts) != len(b.sessions) {
		return nil, nil, fmt.Errorf("infer: %d prompts for a batch of %d sessions", len(prompts), len(b.sessions))
	}
	errs = make([]error, len(b.sessions))
	logits := make([]*tensor.Mat, len(b.sessions))
	parallel.ForEach(len(b.sessions), func(i int) {
		logits[i], errs[i] = b.sessions[i].Prefill(prompts[i])
	})
	rngs := make([]*rand.Rand, len(b.sessions))
	samplers := make([]*Sampler, len(b.sessions))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
		samplers[i] = &Sampler{}
	}
	tokens = make([][]int, len(b.sessions))
	// The still-decoding sequences, compacted each step into the rows of
	// the shared forward: idx[r] is row r's sequence.
	idx := make([]int, 0, len(b.sessions))
	sess := make([]*Session, 0, len(b.sessions))
	toks := make([]int, 0, len(b.sessions))
	for t := 0; t < n; t++ {
		idx = idx[:0]
		sess = sess[:0]
		toks = toks[:0]
		for i, s := range b.sessions {
			if errs[i] != nil {
				continue
			}
			tok := samplers[i].Sample(rngs[i], logits[i].Row(0), temperature)
			tokens[i] = append(tokens[i], tok)
			idx = append(idx, i)
			sess = append(sess, s)
			toks = append(toks, tok)
		}
		if len(sess) == 0 || t == n-1 {
			break // every sequence failed, or the last token is not fed back
		}
		decodeRows(sess, toks, b.errs[:len(sess)])
		for r, i := range idx {
			logits[i], errs[i] = b.logits[i], b.errs[r]
		}
	}
	return tokens, errs, nil
}
