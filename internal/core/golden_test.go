package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// statsDigest is a SHA-256 over the IEEE-754 bits of every element of every
// statistic in st — per layer, in order: XtX, AttnH (if any), each HeadH
// (if any), FisherDiag — so two Stats have the same digest exactly when
// they are bit-identical.
func statsDigest(st *Stats) string {
	h := sha256.New()
	var buf [8]byte
	write := func(m *tensor.Mat) {
		if m == nil {
			return
		}
		for _, v := range m.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for i := range st.Layers {
		ls := &st.Layers[i]
		write(ls.XtX)
		write(ls.AttnH)
		for _, hh := range ls.HeadH {
			write(hh)
		}
		write(ls.FisherDiag)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCollectStatsGolden pins the calibration statistics bit for bit. Both
// digests were computed at the commit before CollectStats was rebuilt
// around one forward per segment (two forwards, a full Attention.Backward
// per probe, everything serial), so a change to CollectStats, to the
// attention probe or to a tensor kernel proves "bit-identical" here rather
// than asserting it. A digest may only change together with a deliberate
// re-pin of the paper cells (scripts/quantize_smoke.sh).
func TestCollectStatsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64's: compilers that fuse multiply-adds (arm64, ppc64le, s390x) round differently")
	}
	const (
		llamaWant = "548c1f69c78aa9e89de283d50f75bbaac2a6574399c4334698b7944b56ed3a9f"
		gptWant   = "57c9367f8d7e70d8d52412284d3be5622da131efcc20f683df07f3a31bd3bd7f"
	)
	for _, workers := range []int{1, 2, 9} {
		parallel.SetWorkers(workers)
		llama := statsDigest(collectTestStats(t))
		st, err := CollectStats(gptModel(), testCalib(6), CollectOptions{Probes: 2, Seed: 1})
		parallel.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		if llama != llamaWant {
			t.Errorf("workers %d: tiny LLaMA stats digest %s, want %s", workers, llama, llamaWant)
		}
		if gpt := statsDigest(st); gpt != gptWant {
			t.Errorf("workers %d: tiny GPT stats digest %s, want %s", workers, gpt, gptWant)
		}
	}
}
