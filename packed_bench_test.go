// Float-vs-packed benchmark pairs for the quantized execution subsystem.
// Each MatVec pair compares one decode-step projection (1 x in row times
// an out x in weight matrix) between the float64 path and dequant-on-the-
// fly packed execution, reporting resident weight bytes
// alongside ns/op; the DecodeBatch rungs run steady-state KV-cached
// generation of 1, 4 and 8 sequences through infer.Batch.Step — one shared
// forward per step, pinned to one worker, so tok/s at B = 8 over B = 1 is
// what decoding each weight row once per step instead of once per sequence
// buys — with zero allocations per token on the float path (test-enforced
// in internal/infer). The RoPEAt pair records the incremental-decode
// rotation fix (direct rotate-at-position vs the previous padded-matrix
// embedding).
//
//	go test -run='^$' -bench='MatVec|DecodeBatch|RoPEAt' -benchtime=1x .
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// skipUnderShort keeps these pairs out of the generic `-bench=. -short`
// smoke pass: CI and make bench-smoke run them once, explicitly, via
// -bench='MatVec|DecodeBatch|RoPEAt' without -short, so the BENCH log gets
// a single entry per pair instead of duplicates.
func skipUnderShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("float-vs-packed pair runs in the dedicated packed bench step")
	}
}

// matVecDims matches a serving-scale projection at nano proportions scaled
// up: 256 outputs x 256 inputs.
const matVecOut, matVecIn = 256, 256

func benchMatVecFloat(b *testing.B) {
	skipUnderShort(b)
	rng := rand.New(rand.NewSource(1))
	w := tensor.Randn(rng, matVecOut, matVecIn, 1)
	l := &nn.Linear{P: nn.NewParam("w", w)}
	x := tensor.Randn(rng, 1, matVecIn, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x)
	}
	b.ReportMetric(float64(8*matVecOut*matVecIn), "weight-bytes")
}

func benchMatVecPacked(b *testing.B, bits int) {
	skipUnderShort(b)
	rng := rand.New(rand.NewSource(1))
	w := tensor.Randn(rng, matVecOut, matVecIn, 1)
	pm, err := quant.PackMatrix(quant.RTN(w, bits, 16, false))
	if err != nil {
		b.Fatal(err)
	}
	l := nn.NewQuantizedLinear("w", pm, nil)
	x := tensor.Randn(rng, 1, matVecIn, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x)
	}
	b.ReportMetric(float64(pm.SizeBytes()), "weight-bytes")
}

func BenchmarkMatVecFloat64(b *testing.B)    { benchMatVecFloat(b) }
func BenchmarkMatVecPacked4Bit(b *testing.B) { benchMatVecPacked(b, 4) }
func BenchmarkMatVecPacked2Bit(b *testing.B) { benchMatVecPacked(b, 2) }

// benchDecodeBatch measures steady-state decode at batch size n on one
// worker: n recycled sessions (warm KV pages, forward arenas, sampler
// buffers and pooled packed-decode scratch — the regime of a serving slot
// pool) each
// prefill a short prompt, then sample-and-feed steps tokens in lockstep
// through Batch.Step, one shared forward per step. Reports tokens/s of
// generated tokens.
func benchDecodeBatch(b *testing.B, m *model.Model, n int, weightBytes int64) {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(1)
	rng := rand.New(rand.NewSource(2))
	prompts := make([][]int, n)
	for i := range prompts {
		prompts[i] = []int{rng.Intn(m.Cfg.Vocab), rng.Intn(m.Cfg.Vocab)}
	}
	const steps = 16
	batch := infer.NewBatch(m, n)
	samplers := make([]infer.Sampler, n)
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(0))
	}
	toks := make([]int, n)
	prefilled := make([]*tensor.Mat, n)
	run := func() {
		batch.Reset()
		logits := prefilled
		for i := range logits {
			rngs[i].Seed(int64(7 + i)) // per-sequence stream, re-seeded per run
			l, err := batch.Session(i).Append(prompts[i])
			if err != nil {
				b.Fatal(err)
			}
			logits[i] = l
		}
		for t := 0; t < steps; t++ {
			for i := range toks {
				toks[i] = samplers[i].Sample(rngs[i], logits[i].Row(0), 0.8)
			}
			if t == steps-1 {
				break // last sampled token is not fed back (Generate's shape)
			}
			var err error
			if logits, err = batch.Step(toks); err != nil {
				b.Fatal(err)
			}
		}
	}
	run() // warm arenas, KV pages and decode scratch out of the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(weightBytes), "weight-bytes")
	tokens := float64(b.N * n * steps)
	b.ReportMetric(tokens/b.Elapsed().Seconds(), "tok/s")
}

func floatBenchModel() (*model.Model, int64) {
	m := model.New(model.Nano7B(), 1)
	var bytes int64
	for _, ref := range m.QuantizableLayers() {
		bytes += 8 * int64(ref.NumWeights())
	}
	return m, bytes
}

func packedBenchModel(b *testing.B) (*model.Model, int64) {
	m, _ := floatBenchModel()
	var packed []*quant.PackedMatrix
	for _, ref := range m.QuantizableLayers() {
		pm, err := quant.PackMatrix(quant.RTN(ref.Linear.P.W, 4, 16, false))
		if err != nil {
			b.Fatal(err)
		}
		packed = append(packed, pm)
	}
	qm, err := model.NewQuantizedModel(m, packed)
	if err != nil {
		b.Fatal(err)
	}
	return qm.Model, qm.PackedWeightBytes()
}

func BenchmarkDecodeBatch1Float(b *testing.B) {
	skipUnderShort(b)
	m, bytes := floatBenchModel()
	benchDecodeBatch(b, m, 1, bytes)
}

func BenchmarkDecodeBatch4Float(b *testing.B) {
	skipUnderShort(b)
	m, bytes := floatBenchModel()
	benchDecodeBatch(b, m, 4, bytes)
}

func BenchmarkDecodeBatch8Float(b *testing.B) {
	skipUnderShort(b)
	m, bytes := floatBenchModel()
	benchDecodeBatch(b, m, 8, bytes)
}

func BenchmarkDecodeBatch1Packed(b *testing.B) {
	skipUnderShort(b)
	m, bytes := packedBenchModel(b)
	benchDecodeBatch(b, m, 1, bytes)
}

func BenchmarkDecodeBatch4Packed(b *testing.B) {
	skipUnderShort(b)
	m, bytes := packedBenchModel(b)
	benchDecodeBatch(b, m, 4, bytes)
}

func BenchmarkDecodeBatch8Packed(b *testing.B) {
	skipUnderShort(b)
	m, bytes := packedBenchModel(b)
	benchDecodeBatch(b, m, 8, bytes)
}

// --- RoPE rotate-at-position: before/after the O(seq²) decode fix ---

func benchRoPEAt(b *testing.B, padded bool) {
	skipUnderShort(b)
	const headDim, dim, pos = 16, 64, 63
	r := nn.NewRoPE(headDim, pos+1, 10000)
	rng := rand.New(rand.NewSource(3))
	row := tensor.Randn(rng, 1, dim, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if padded {
			// The previous incremental-decode formulation: embed the row at
			// index pos of a (pos+1 x dim) zero matrix and rotate all of it.
			p := tensor.New(pos+1, dim)
			copy(p.Row(pos), row.Row(0))
			r.Apply(p)
			copy(row.Row(0), p.Row(pos))
		} else {
			r.ApplyAt(row, pos)
		}
	}
}

func BenchmarkRoPEAtPadded(b *testing.B) { benchRoPEAt(b, true) }
func BenchmarkRoPEAtDirect(b *testing.B) { benchRoPEAt(b, false) }
