// Cross-session batched decode: one block forward per tick over the
// current tokens of B sessions, so every packed weight row is decoded
// once per tick and applied to all B rows instead of once per session.
// DecodeRows is the primitive; Step is its B = 1 case, and the serving
// scheduler and Batch run it one DecodeRowGroup per worker. Steady-state
// decode performs zero heap allocations per token on the float path at one
// worker (pinned by TestStepSteadyStateAllocs).
package infer

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// DecodeRows advances each session by one token in a single shared block
// forward: row i is tokens[i] at sess[i]'s current position, attending to
// sess[i]'s own KV cache. Afterwards sess[i].Logits() holds row i's
// next-token logits. The sessions must be distinct and run over views of
// one model; the forward uses the first admitted session's arena.
//
// Errors are per row: errs[i] reports a session that is out of context
// (MaxSeq) or whose KV reservation failed (ErrPoolExhausted, retryable).
// Such a row is left out of the forward with its session bit-for-bit
// unchanged, and the other rows' results are what they would be without
// it — or with any other set of neighbours: a row's logits and KV bytes do
// not depend on the batch it rides in. If the forward panics, every
// session is rolled back to its pre-call position before the panic
// propagates.
//
//aptq:noalloc
func DecodeRows(sess []*Session, tokens []int, errs []error) {
	if len(tokens) != len(sess) || len(errs) != len(sess) {
		panic("infer: DecodeRows needs one token and one error slot per session")
	}
	var sc *chunkScratch
	for i, s := range sess {
		if errs[i] = s.admit(1); errs[i] != nil {
			continue
		}
		if sc == nil {
			sc = s.ensureScratch(len(sess)) //aptq:ignore noalloc the arena is allocated once and regrown only when a wider forward arrives
		}
		sc.add(s, s.pos, tokens[i])
	}
	if sc != nil {
		sc.forward(0)
	}
}

// RowGroups returns how many contiguous groups n decode rows are cut into
// for one tick: one DecodeRows forward per worker. Workers are used by row
// groups, not by splitting weight rows inside a projection: at decode
// sizes a split projection is slower than a serial one (the kernels keep
// it serial), while each group still decodes a weight tile once for its
// rows — and a group of four or more rows shares every tile load across
// four rows in quant's AVX2 leaf.
func RowGroups(n int) int { return min(parallel.Workers(), n) }

// RowPanic is the error of a decode row whose forward panicked with the
// row running alone: the fault is that row's own.
type RowPanic struct{ Value any }

func (e *RowPanic) Error() string { return fmt.Sprintf("infer: decode row panicked: %v", e.Value) }

// DecodeRowGroup runs group g of the groups = RowGroups(len(sess))
// contiguous groups of the rows as one DecodeRows forward: one worker's
// item, safe to run beside the other groups'. A panic in the shared forward
// does not fail the rows that merely shared it: DecodeRows has rolled every
// member back, so they re-run one at a time — the same forward at B = 1 —
// and only a row that panics alone reports a *RowPanic; its neighbours come
// out bit-identical to an undisturbed forward.
//
//aptq:noalloc
func DecodeRowGroup(sess []*Session, tokens []int, errs []error, groups, g int) {
	lo, hi := g*len(sess)/groups, (g+1)*len(sess)/groups
	defer rerunAlone(sess[lo:hi], tokens[lo:hi], errs[lo:hi])
	DecodeRows(sess[lo:hi], tokens[lo:hi], errs[lo:hi])
}

// rerunAlone is DecodeRowGroup's recover barrier: the cold path.
func rerunAlone(sess []*Session, tokens []int, errs []error) {
	switch r := recover(); {
	case r == nil:
	case len(sess) == 1:
		errs[0] = &RowPanic{r} //aptq:ignore noalloc only when a row's forward panics
	default:
		for i := range sess {
			DecodeRowGroup(sess, tokens, errs, len(sess), i)
		}
	}
}

// Step consumes one token and returns the next-token logits (1 x vocab):
// DecodeRows over this session alone.
//
// The returned matrix is owned by the session and overwritten by its next
// Step/Append/Prefill; clone it to retain it past that. (Sampling the next
// token before stepping again, the pattern of every decode loop in this
// repository, needs no clone.)
//
//aptq:noalloc
func (s *Session) Step(token int) (*tensor.Mat, error) {
	sess := [1]*Session{s}
	tokens := [1]int{token}
	var errs [1]error
	DecodeRows(sess[:], tokens[:], errs[:])
	if errs[0] != nil {
		return nil, errs[0]
	}
	return s.logits, nil
}
