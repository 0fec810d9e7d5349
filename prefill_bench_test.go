// Token-loop-vs-chunked prefill benchmark pairs. Both consume the same
// 64-token prompt over the same model; only the prompt path differs. The
// loop variants feed the prompt through Step one token at a time (a full
// 1 x Dim matvec sweep and an O(seq) attention re-read per token — the
// pre-chunking Prefill), the chunked variants run the batched block
// forward (matrix-matrix projections, each packed row decoded once, bulk
// KV append, reusable scratch arena). Outputs are bit-identical; both
// report prompt tok/s.
//
//	go test -run='^$' -bench=Prefill -benchtime=1x .
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/quant"
)

// prefillBenchConfig is a serving-scale configuration: wide enough that
// matrix-matrix locality and decode amortization show, small enough for
// the bench-smoke CI job.
func prefillBenchConfig() model.Config {
	return model.Config{Name: "prefill-bench", Vocab: 256, Dim: 128, Heads: 8, Layers: 4, FF: 256, MaxSeq: 128, RopeBase: 10000}
}

const prefillBenchPrompt = 64

// packModel swaps every quantizable projection of m for its 4-bit packed
// form (RTN, group 16).
func packModel(b *testing.B, m *model.Model) *model.Model {
	b.Helper()
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
	return qm.Model
}

func benchPrefill(b *testing.B, m *model.Model, chunk int) {
	skipUnderShort(b)
	rng := rand.New(rand.NewSource(4))
	prompt := make([]int, prefillBenchPrompt)
	for i := range prompt {
		prompt[i] = rng.Intn(m.Cfg.Vocab)
	}
	sess := infer.NewSession(m.View())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Reset()
		var err error
		if chunk > 0 {
			_, err = sess.PrefillChunked(prompt, chunk)
		} else {
			_, err = sess.PrefillLoop(prompt)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*prefillBenchPrompt)/b.Elapsed().Seconds(), "tok/s")
}

func BenchmarkPrefillLoopFloat(b *testing.B) {
	benchPrefill(b, model.New(prefillBenchConfig(), 1), 0)
}

func BenchmarkPrefillChunkedFloat(b *testing.B) {
	benchPrefill(b, model.New(prefillBenchConfig(), 1), infer.DefaultPrefillChunk)
}

func BenchmarkPrefillLoopPacked(b *testing.B) {
	benchPrefill(b, packModel(b, model.New(prefillBenchConfig(), 1)), 0)
}

func BenchmarkPrefillChunkedPacked(b *testing.B) {
	benchPrefill(b, packModel(b, model.New(prefillBenchConfig(), 1)), infer.DefaultPrefillChunk)
}
