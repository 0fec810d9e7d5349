package infer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// TestPackedForwardGolden pins the packed forward bit for bit: a SHA-256
// over the IEEE-754 bits of the logits of one 24-token Append and eight
// greedy Steps on a tiny packed model (RTN, seed 1, group 8) whose layers
// alternate 2-bit and 4-bit with one 3-bit layer among them — the two
// widths with a byte-wise decoder and one that takes the reference
// DecodeRowInto. The digest was computed at the commit before the
// dequantization tables were deleted from internal/quant, so a change to a
// packed decoder or to the matmul kernel's accumulation order proves
// "bit-identical" here rather than asserting it — under both leaves of the
// packed product, the assembly one and the portable one.
func TestPackedForwardGolden(t *testing.T) {
	forEachLeaf(t, testPackedForwardGolden)
}

func testPackedForwardGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest is amd64's: compilers that fuse multiply-adds (arm64, ppc64le, s390x) round differently")
	}
	const want = "61a047bc8d5b494707a9c3ce92dcc23057d51db76814dbec9b4ce07a54686e32"
	m := model.New(model.Tiny(), 1)
	var packed []*quant.PackedMatrix
	for i, ref := range m.QuantizableLayers() {
		bits := 2 + 2*(i%2)
		if i == 5 {
			bits = 3
		}
		pm, err := quant.PackMatrix(quant.RTN(ref.Linear.P.W, bits, 8, false))
		if err != nil {
			t.Fatal(err)
		}
		packed = append(packed, pm)
	}
	qm, err := model.NewQuantizedModel(m, packed)
	if err != nil {
		t.Fatal(err)
	}
	prompt := make([]int, 24)
	for i := range prompt {
		prompt[i] = (7*i + 3) % m.Cfg.Vocab
	}
	for _, workers := range []int{1, 3} {
		parallel.SetWorkers(workers)
		h := sha256.New()
		hash := func(logits *tensor.Mat) {
			var buf [8]byte
			for _, v := range logits.Data {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		s := NewSession(qm.Model)
		logits, err := s.Append(prompt)
		for step := 0; err == nil && step < 8; step++ {
			hash(logits)
			logits, err = s.Step(SampleLogits(nil, logits.Row(0), 0))
		}
		parallel.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		hash(logits)
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("workers %d: packed forward digest %s, want %s", workers, got, want)
		}
	}
}
