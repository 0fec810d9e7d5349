//go:build !race

// Byte-exact allocation accounting: the race detector makes sync.Pool drop
// buffers at random, so the steady state below is only exact without it.

package quant

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestPackedProductBuildsNoResidentState makes SizeBytes' claim — the
// packed form is all a served matrix holds — a measurement: the first
// product of a fresh matrix may allocate its pooled decode scratch (the
// decodeBlockRows x Cols tile plus one spare row of Cols float64s) and the
// pool's own per-P bookkeeping, nothing that scales with Rows x Cols
// (per-(row, group) dequantization tables were 7x and 2.2x the scratch on
// these shapes), and the second product allocates nothing — under either
// leaf: the assembly one keeps its accumulators on the stack.
func TestPackedProductBuildsNoResidentState(t *testing.T) {
	forEachLeaf(t, testPackedProductBuildsNoResidentState)
}

func testPackedProductBuildsNoResidentState(t *testing.T) {
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(15))
	x := tensor.Randn(rng, 1, 64, 1)
	out := tensor.New(1, 64)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, bits := range []int{4, 2} {
		p, err := PackMatrix(randomQuantized(rng, 64, 64, 16, bits, nil))
		if err != nil {
			t.Fatal(err)
		}
		limit := uint64((decodeBlockRows+1)*p.Cols*8 + 1024 + 128*runtime.GOMAXPROCS(0))
		product := func() { p.MatMulNTInto(out, x) }
		if got := allocated(product); got > limit {
			t.Errorf("%d-bit: first product allocated %d bytes, want at most %d (tile + spare row + pool bookkeeping)", bits, got, limit)
		}
		if got := allocated(product); got != 0 {
			t.Errorf("%d-bit: second product allocated %d bytes, want 0", bits, got)
		}
	}
}
