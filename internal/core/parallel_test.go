package core

import (
	"reflect"
	"testing"

	"repro/internal/parallel"
)

// TestQuantizeParallelBitIdentical proves the tentpole determinism claim at
// the pipeline level: running the full APTQ per-layer loop across many
// workers produces exactly the serial result — same codes, same group
// parameters, same dequantized weights, same reports — because layers are
// independent and each partition keeps a fixed reduction order.
func TestQuantizeParallelBitIdentical(t *testing.T) {
	m := testModel()
	st := collectTestStats(t)
	calib := testCalib(6)
	for _, ratio := range []float64{1.0, 0.5} {
		opts := DefaultOptions(ratio)
		opts.GroupSize = 8
		opts.BlockSize = 8

		parallel.SetWorkers(1)
		serial, err := QuantizeWithStats(m, st, calib, opts)
		if err != nil {
			parallel.SetWorkers(0)
			t.Fatal(err)
		}
		parallel.SetWorkers(5)
		par, err := QuantizeWithStats(m, st, calib, opts)
		parallel.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(serial.Layers, par.Layers) {
			t.Fatalf("ratio %.2f: layer reports differ between serial and parallel", ratio)
		}
		if len(serial.Quantized) != len(par.Quantized) {
			t.Fatalf("ratio %.2f: %d vs %d quantized layers", ratio, len(serial.Quantized), len(par.Quantized))
		}
		for i := range serial.Quantized {
			sq, pq := serial.Quantized[i], par.Quantized[i]
			if !reflect.DeepEqual(sq.Codes, pq.Codes) || !reflect.DeepEqual(sq.Params, pq.Params) {
				t.Fatalf("ratio %.2f: layer %s codes/params differ", ratio, serial.Layers[i].Name)
			}
		}
		sw := serial.Model.QuantizableLayers()
		pw := par.Model.QuantizableLayers()
		for i := range sw {
			a, b := sw[i].Linear.P.W, pw[i].Linear.P.W
			for j := range a.Data {
				if a.Data[j] != b.Data[j] {
					t.Fatalf("ratio %.2f: layer %s weight %d differs bitwise", ratio, sw[i].Name(), j)
				}
			}
		}
		if serial.AvgBits != par.AvgBits || serial.AvgBitsWithOverhead != par.AvgBitsWithOverhead {
			t.Fatalf("ratio %.2f: avg bits differ: %v vs %v", ratio, serial.AvgBits, par.AvgBits)
		}
	}
}

// TestQuantizeParallelRace exercises the concurrent per-layer path with
// more workers than layers under -race (the CI race job runs this).
func TestQuantizeParallelRace(t *testing.T) {
	m := testModel()
	st := collectTestStats(t)
	parallel.SetWorkers(8)
	defer parallel.SetWorkers(0)
	opts := DefaultOptions(0.75)
	opts.GroupSize = 8
	opts.BlockSize = 8
	if _, err := QuantizeWithStats(m, st, testCalib(6), opts); err != nil {
		t.Fatal(err)
	}
}

// TestCollectStatsParallelBitIdentical: the per-segment fork (loss
// backward beside one task per block) hands every accumulator its terms in
// the same order whatever runs where, so one worker, two, and more workers
// than there are tasks give element-wise equal statistics.
func TestCollectStatsParallelBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(0)
	collect := func(workers int) *Stats {
		parallel.SetWorkers(workers)
		return collectTestStats(t)
	}
	serial := collect(1)
	for _, workers := range []int{2, 9} {
		par := collect(workers)
		if par.Tokens != serial.Tokens || par.Probes != serial.Probes || len(par.Layers) != len(serial.Layers) {
			t.Fatalf("workers %d: stats header differs from serial", workers)
		}
		for i := range serial.Layers {
			s, p := &serial.Layers[i], &par.Layers[i]
			same := reflect.DeepEqual(s.XtX, p.XtX) && reflect.DeepEqual(s.AttnH, p.AttnH) &&
				reflect.DeepEqual(s.HeadH, p.HeadH) && reflect.DeepEqual(s.FisherDiag, p.FisherDiag)
			if !same {
				t.Fatalf("workers %d: %s statistics differ from serial", workers, s.Ref.Name())
			}
		}
	}
}

// TestCollectStatsParallelRace runs the fork with more workers than tasks
// under -race (the CI race job runs this): the loss backward and the block
// tasks read one forward's caches and must write disjoint memory.
func TestCollectStatsParallelRace(t *testing.T) {
	parallel.SetWorkers(9)
	defer parallel.SetWorkers(0)
	collectTestStats(t)
	if _, err := CollectStats(gptModel(), testCalib(6), CollectOptions{Probes: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}
