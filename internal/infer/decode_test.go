package infer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/parallel"
)

// TestStepSteadyStateAllocs pins the forward-arena property at B = 1 — the
// decode mirror of TestAppendSteadyStateAllocs: once a session has decoded one
// sequence (scratch arena sized, KV chunks and decode buffers warm), further
// decode steps on the float path allocate nothing at one worker, and the
// packed path is bounded by the pooled decode buffers' noise.
func TestStepSteadyStateAllocs(t *testing.T) {
	const steps = 16
	run := func(m *model.Model) float64 {
		parallel.SetWorkers(1)
		defer parallel.SetWorkers(0)
		sess := NewSession(m.View())
		rng := rand.New(rand.NewSource(9))
		var sp Sampler
		// Warm scratch, KV chunks, sampler buffers and (packed) pooled decode
		// buffers past the steady-state sequence length.
		logits, err := sess.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			tok := sp.Sample(rng, logits.Row(0), 0.8)
			if logits, err = sess.Step(tok); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			sess.Reset()
			l, err := sess.Step(1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < steps; i++ {
				tok := sp.Sample(rng, l.Row(0), 0.8)
				if l, err = sess.Step(tok); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if allocs := run(model.New(model.Tiny(), 3)); allocs > 0 {
		t.Fatalf("float decode allocates %v per %d-step sequence in steady state, want 0", allocs, steps+1)
	}
	// The packed path's only steady-state allocations are pooled decode
	// buffers; the race runtime deliberately drops pool puts, so only the
	// race-free build pins a tight bound.
	packedBound := 8.0
	if raceEnabled {
		packedBound = 1024
	}
	if allocs := run(packTiny(t, model.Tiny())); allocs > packedBound {
		t.Fatalf("packed decode allocates %v per %d-step sequence in steady state, want <= %v",
			allocs, steps+1, packedBound)
	}
}

// TestStepKVQuantSteadyStateAllocs: the quantized-KV decode path shares
// the arena, so it too reaches zero steady-state allocations at one
// worker (per-row dynamic grids quantize in place).
func TestStepKVQuantSteadyStateAllocs(t *testing.T) {
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	m := model.New(model.Tiny(), 3)
	sess := NewSessionKVQuant(m.View(), 4)
	for i := 0; i < 12; i++ {
		if _, err := sess.Step(1 + i%7); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		sess.Reset()
		for i := 0; i < 12; i++ {
			if _, err := sess.Step(1 + i%7); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("kv-quant decode allocates %v per sequence in steady state, want 0", allocs)
	}
}

// TestSamplerMatchesSampleLogits: the scratch-reusing Sampler is
// bit-identical to the one-shot SampleLogits on the same RNG stream, for
// greedy and sampled temperatures and across vocabulary sizes (the buffer
// grow/shrink paths).
func TestSamplerMatchesSampleLogits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sp Sampler
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		logits := make([]float64, n)
		for i := range logits {
			logits[i] = rng.NormFloat64() * 3
		}
		if trial%7 == 3 {
			logits[rng.Intn(n)] = math.NaN()
		}
		if trial%11 == 5 {
			logits[rng.Intn(n)] = math.Inf(-1)
		}
		temp := float64(trial%4) * 0.45 // 0 (greedy), 0.45, 0.9, 1.35
		seed := int64(trial)
		want := SampleLogits(rand.New(rand.NewSource(seed)), logits, temp)
		got := sp.Sample(rand.New(rand.NewSource(seed)), logits, temp)
		if got != want {
			t.Fatalf("trial %d (n=%d temp=%v): Sampler picked %d, SampleLogits %d", trial, n, temp, got, want)
		}
	}
}

// TestStepLogitsSessionOwned documents the session-owned return contract:
// the matrix returned by Step is overwritten by the next Step, and a clone
// taken before the overwrite preserves the values.
func TestStepLogitsSessionOwned(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	sess := NewSession(m.View())
	first, err := sess.Step(3)
	if err != nil {
		t.Fatal(err)
	}
	keep := first.Clone()
	second, err := sess.Step(4)
	if err != nil {
		t.Fatal(err)
	}
	if &first.Data[0] != &second.Data[0] {
		t.Fatal("consecutive Steps must reuse the session-owned logits buffer")
	}
	if first.Equal(keep, 0) {
		t.Fatal("second Step did not overwrite the buffer (logits identical across different positions?)")
	}
}
