// Command bench is the repository's performance record: a quiet end-to-end
// and per-layer benchmark of the quantize -> pack -> serve vertical. See
// README.md for the metric and workload tables and the noise rules.
//
//	go run ./bench -workload decode-packed -seed 1 -seconds 16 -trace 0
//	go run ./bench -workload decode-packed -seed 1 -seconds 16 -trace 1
//	go run ./bench -agree
//	go run ./bench -mkfixture [-check]
//
// A run prints progress on standard error and, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/parallel"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: quantize-sweep, decode-packed, prefill-packed or shared-prefix-http-float")
		seed      = flag.Int64("seed", 1, "seed of the request plan")
		seconds   = flag.Int("seconds", 16, "measured work, in seconds on the seed (fixes the number of rounds)")
		traced    = flag.Int("trace", 0, "1: the separate traced run that yields the per-layer metrics")
		agree     = flag.Bool("agree", false, "run every workload in two sets and apply the benchmark's own bounds")
		mkfixture = flag.Bool("mkfixture", false, "retrain the pinned nano-7B and write "+fixturePath)
		check     = flag.Bool("check", false, "with -mkfixture: verify the committed fixture byte for byte")
	)
	flag.Parse()

	// Pinned process shape, whatever nproc says.
	runtime.GOMAXPROCS(2)
	parallel.SetWorkers(2)

	var err error
	switch {
	case *seconds < 1:
		err = fmt.Errorf("-seconds %d: want at least 1", *seconds)
	case *mkfixture:
		err = makeFixture(*check)
	case *agree:
		err = runAgree(*seconds)
	default:
		err = runOne(*name, *seed, *seconds, *traced != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its result object.
func runOne(name string, seed int64, seconds int, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	b := newBench()
	var res result
	if traced {
		res, err = b.runTraced(w, seed, os.Stderr)
	} else {
		res, err = b.runWorkload(w, seed, seconds, os.Stderr)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
