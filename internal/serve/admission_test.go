package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/model"
)

// TestAdmissionChunkBoundsPerTickWork is the white-box half of the
// chunked-admission contract: a slot prefilling a long prompt consumes at
// most PrefillChunk tokens per tick, so a single tick — the unit
// co-scheduled slots wait on — never carries more than one chunk of
// prompt work, and the prompt takes exactly ceil(len/chunk) ticks to
// admit.
func TestAdmissionChunkBoundsPerTickWork(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	const chunk = 4
	long := make([]int, 19)
	for i := range long {
		long[i] = 1 + i%(m.Cfg.Vocab-1)
	}
	sl := newSlot(infer.NewSession(m.View()), m.Cfg.MaxSeq, chunk, nil)
	sl.start(Request{ID: "long", Prompt: long, MaxTokens: 2, Seed: 1}, nil, time.Now(), nil)
	ticks := 0
	for !sl.prefilled {
		before := sl.sess.Pos()
		tickAlone(sl)
		if sl.done {
			t.Fatalf("prefill finished with %v after %d ticks", sl.err, ticks)
		}
		if got := sl.sess.Pos() - before; got > chunk {
			t.Fatalf("tick %d consumed %d prompt tokens, chunk is %d", ticks, got, chunk)
		}
		ticks++
		if ticks > len(long) {
			t.Fatalf("prefill not done after %d ticks", ticks)
		}
	}
	if want := (len(long) + chunk - 1) / chunk; ticks != want {
		t.Fatalf("prompt of %d admitted in %d ticks, want %d", len(long), ticks, want)
	}
	if sl.ttft <= 0 || !sl.ttftPending {
		t.Fatalf("prefill completion must stage a TTFT sample (ttft=%v pending=%v)", sl.ttft, sl.ttftPending)
	}
	// Decoding proceeds normally after the staged admission.
	for !sl.done {
		tickAlone(sl)
	}
	if sl.reason != FinishLength || len(sl.tokens) != 2 {
		t.Fatalf("post-admission decode finished (%s, %d tokens)", sl.reason, len(sl.tokens))
	}
}

// TestSlotCancelStopsTicks is the deterministic core of the cancellation
// contract: a slot whose request context is cancelled finishes with
// FinishCancelled on the very next tick and performs no further
// decode work — token count frozen at the moment of cancellation, session
// position untouched afterwards.
func TestSlotCancelStopsTicks(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sl := newSlot(infer.NewSession(m.View()), m.Cfg.MaxSeq, 4, nil)
	sl.start(Request{ID: "c", Prompt: []int{3, 1}, MaxTokens: 20, Seed: 2, Ctx: ctx}, nil, time.Now(), nil)
	for len(sl.tokens) < 3 {
		tickAlone(sl)
		if sl.done {
			t.Fatalf("finished (%s) before cancellation with %d tokens", sl.reason, len(sl.tokens))
		}
	}
	cancel()
	pos := sl.sess.Pos()
	tickAlone(sl)
	if !sl.done || sl.reason != FinishCancelled || sl.err != nil {
		t.Fatalf("post-cancel tick: done=%v reason=%s err=%v", sl.done, sl.reason, sl.err)
	}
	if len(sl.tokens) != 3 {
		t.Fatalf("cancelled slot holds %d tokens, want the 3 generated before cancellation", len(sl.tokens))
	}
	if sl.sess.Pos() != pos {
		t.Fatalf("cancelled tick moved the session %d -> %d: it must consume no decode tick", pos, sl.sess.Pos())
	}
	// Further ticks are no-ops on a finished slot.
	tickAlone(sl)
	if len(sl.tokens) != 3 || sl.sess.Pos() != pos {
		t.Fatalf("finished slot kept decoding: %d tokens, pos %d", len(sl.tokens), sl.sess.Pos())
	}
}

// TestSlotDeadlineReason: an expired deadline maps to FinishDeadline, a
// plain cancellation to FinishCancelled, both before any prefill work.
func TestSlotDeadlineReason(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	sl := newSlot(infer.NewSession(m.View()), m.Cfg.MaxSeq, 4, nil)
	sl.start(Request{ID: "d", Prompt: []int{1}, MaxTokens: 4, Ctx: expired}, nil, time.Now(), nil)
	tickAlone(sl)
	if !sl.done || sl.reason != FinishDeadline {
		t.Fatalf("expired-deadline slot: done=%v reason=%s, want %s", sl.done, sl.reason, FinishDeadline)
	}
	if sl.sess.Pos() != 0 {
		t.Fatalf("expired request prefilled %d tokens, want 0", sl.sess.Pos())
	}
}

// TestPercentileNearestRank pins the percentile helper on small windows.
func TestPercentileNearestRank(t *testing.T) {
	samples := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(samples, 50); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := percentile(samples, 99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	if got := percentile(samples[:1], 99); got != 1 {
		t.Fatalf("p99 of singleton = %v, want 1", got)
	}
}
