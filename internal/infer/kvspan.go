// KV snapshot export/import: the session-side mechanism under prefix
// caching. A serving scheduler that sees the same prompt prefix over and
// over (system prompts, few-shot headers) can export the KV rows that
// prefix produced once, keep them as an immutable snapshot, and import
// them into a recycled slot instead of recomputing the prefill — a memcpy
// per block instead of a matmul per token. Because prefill is
// deterministic and KV rows are append-only, an imported span is
// byte-identical to the rows the session would have computed itself, so
// decoding after an import is bit-identical to a cold prefill (the
// prefix-cache tests in internal/serve pin this end to end).
package infer

import (
	"fmt"

	"repro/internal/tensor"
)

// KVSpan is an immutable copy of the per-block key/value rows of sequence
// positions [Start, End) of one session. Spans are safe to share between
// goroutines and sessions: ImportKV only reads them.
type KVSpan struct {
	Start, End int
	k, v       []*tensor.Mat // per block, (End-Start) x dim
}

// Bytes reports the resident size of the span's row copies.
func (sp *KVSpan) Bytes() int64 {
	var n int64
	for _, m := range sp.k {
		n += int64(len(m.Data)) * 8
	}
	for _, m := range sp.v {
		n += int64(len(m.Data)) * 8
	}
	return n
}

// Tokens returns the number of sequence positions the span covers.
func (sp *KVSpan) Tokens() int { return sp.End - sp.Start }

// ExportKV copies the key/value rows of positions [lo, hi) out of every
// block's cache into an immutable span. The rows must already be consumed
// (hi <= Pos()).
func (s *Session) ExportKV(lo, hi int) *KVSpan {
	if lo < 0 || hi > s.pos || lo >= hi {
		panic(fmt.Sprintf("infer: ExportKV [%d,%d) of a session at position %d", lo, hi, s.pos))
	}
	sp := &KVSpan{Start: lo, End: hi}
	dim := s.m.Cfg.Dim
	for _, c := range s.caches {
		k := tensor.New(hi-lo, dim)
		v := tensor.New(hi-lo, dim)
		for t := lo; t < hi; t++ {
			copy(k.Row(t-lo), c.kRow(t))
			copy(v.Row(t-lo), c.vRow(t))
		}
		sp.k = append(sp.k, k)
		sp.v = append(sp.v, v)
	}
	return sp
}

// ImportKV appends the span's rows to every block's cache and advances
// the session position to span.End, as if the tokens that produced the
// span had just been prefilled. The session must sit exactly at
// span.Start (for a prefix import on a recycled slot: at 0 for the first
// span, then at each span's start for consecutive spans). The span is
// only read; warm KV chunks are reused, so importing into a recycled slot
// allocates only when the sequence outgrows the slot's previous high-water
// mark.
func (s *Session) ImportKV(sp *KVSpan) error {
	if s.pos != sp.Start {
		return fmt.Errorf("infer: ImportKV of span [%d,%d) into a session at position %d", sp.Start, sp.End, s.pos)
	}
	if len(sp.k) != len(s.caches) {
		return fmt.Errorf("infer: ImportKV span has %d blocks, session has %d", len(sp.k), len(s.caches))
	}
	if sp.End > s.m.Cfg.MaxSeq {
		return fmt.Errorf("infer: ImportKV span end %d exceeds MaxSeq %d", sp.End, s.m.Cfg.MaxSeq)
	}
	// Validate every block before touching any state, so a failed import
	// never leaves the session half-advanced (the Append contract).
	for bi, c := range s.caches {
		if sp.k[bi].Cols != c.dim {
			return fmt.Errorf("infer: ImportKV span dim %d, cache dim %d", sp.k[bi].Cols, c.dim)
		}
	}
	// Reserve the span's rows in every block before copying any: on a
	// budgeted pool ErrPoolExhausted surfaces here with the session
	// unchanged (the same retryability contract as Step/Append).
	if err := s.reserveKV(sp.Tokens()); err != nil {
		return err
	}
	for bi, c := range s.caches {
		for t := 0; t < sp.Tokens(); t++ {
			c.appendRow(sp.k[bi].Row(t), sp.v[bi].Row(t))
		}
	}
	s.pos = sp.End
	return nil
}
