package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"
)

// perLayerUnits names every per-layer metric, "<module>.<metric>", and its
// unit; BENCHMARK.json declares the same set. Which end-to-end metric each
// one should move, on which workload, is in README.md.
var perLayerUnits = map[string]string{
	"tensor.matvec_ns_per_weight": "ns",
	"tensor.matmul_ns_per_mac":    "ns",
	"tensor.gram_ns_per_mac":      "ns",

	"linalg.damped_inverse_us": "us",
	"gptq.quantize_layer_ms":   "ms",

	"core.collect_stats_s":            "s",
	"core.allocate_ms":                "ms",
	"core.quantize_with_stats_s":      "s",
	"core.packed_model_ms":            "ms",
	"core.avg_bits":                   "bits",
	"core.compressed_bytes":           "bytes",
	"quant.matvec4_ns_per_weight":     "ns",
	"quant.matvec2_ns_per_weight":     "ns",
	"quant.matmul4_ns_per_weight_row": "ns",
	"quant.ensure_lut_ms":             "ms",
	"quant.pack_ms":                   "ms",
	"quant.bytes_per_weight":          "bytes",

	"eval.ppl_tok_per_s":       "tok/s",
	"eval.ppl_c4_fp":           "ppl",
	"eval.ppl_c4_4p0":          "ppl",
	"eval.ppl_c4_3p5":          "ppl",
	"eval.zeroshot_acc_3p8":    "share",
	"model.forward_us_per_tok": "us",

	"infer.step_packed_us":           "us",
	"infer.step_float_us":            "us",
	"infer.append_packed_us_per_tok": "us",
	"infer.append_float_us_per_tok":  "us",
	"infer.adopt_pages_us":           "us",
	"infer.kv_bytes_per_tok":         "bytes",
	"infer.step_allocs":              "count",

	"serve.sched_tok_per_s_b1":          "tok/s",
	"serve.sched_tok_per_s_b4":          "tok/s",
	"serve.sched_tok_per_s_b8":          "tok/s",
	"serve.batch_scaling_b8":            "ratio",
	"serve.tick_overhead_us_per_tok":    "us",
	"serve.active_slots_mean":           "count",
	"serve.stats_ttft_p50_ms":           "ms",
	"serve.stats_itl_p99_ms":            "ms",
	"serve.prefix_hit_rate":             "share",
	"serve.prefix_hit_tok_share":        "share",
	"serve.kv_sharing_ratio":            "ratio",
	"serve.preemptions":                 "count",
	"serve.admission_deferred":          "count",
	"serve.rejected":                    "count",
	"serve.panics":                      "count",
	"http.generate_overhead_us_per_req": "us",
	"http.sse_overhead_us_per_tok":      "us",

	"router.hop_us_per_req":     "us",
	"router.affinity_share":     "share",
	"router.replica_share_max":  "share",
	"router.retries":            "count",
	"router.failovers":          "count",
	"router.errors":             "count",
	"prefixkey.hash_ns_per_tok": "ns",

	"parallel.foreach_overhead_us": "us",
	"parallel.matmul_speedup_w2":   "ratio",

	"runtime.allocs_per_tok":    "count",
	"runtime.gc_pause_ms_per_s": "ms",
	"runtime.heap_peak_mb":      "MB",
	"loadgen.tpot_mean_ms":      "ms",
	"loadgen.itl_p99_ms":        "ms",
	"loadgen.late_p99_ms":       "ms",
	"trace.overhead_share":      "share",
}

// tracedSetUps is how many set-ups the traced run times per stage.
const tracedSetUps = 3

// replayRounds is the traced run's traffic: after a warm-up, untraced and
// traced rounds alternate, so trace.overhead_share compares like with like
// inside one process.
const replayRounds = 4

// runTraced is the separate traced run: it replays a short stretch of the
// workload with spans recorded around every call into a layer, runs the
// serial ladder, writes the spans to bench/out/ and reports every
// per-layer metric. End-to-end metrics are never taken from it.
func (b *bench) runTraced(w workload, seed int64, log io.Writer) (result, error) {
	v := map[string]float64{}
	art, t, err := b.replay(w, seed, v, log)
	if err != nil {
		return result{}, err
	}
	// The replay's stack is closed: the ladder measures on an idle process,
	// whatever the workload was.
	if err := b.ladder(art, v, log); err != nil {
		return result{}, fmt.Errorf("ladder: %w", err)
	}
	if err := b.rec.write(w.name, log); err != nil {
		return result{}, fmt.Errorf("trace: %w", err)
	}
	return result{Correct: t.firstErr == nil, Attempted: t.sent, Failed: t.sent - t.ok, Metrics: withUnits(v, perLayerUnits)}, nil
}

// replay sets the stack up under spans, replays the workload with spans on
// in alternate rounds, and fills v with what only a live workload can tell:
// pipeline stage times, the serving stack's counters, client-side cadence,
// runtime statistics and the tracing overhead. It returns the artefact for
// the ladder.
func (b *bench) replay(w workload, seed int64, v map[string]float64, log io.Writer) (*artefact, tally, error) {
	var t tally
	b.rec.t0 = time.Now()
	b.rec.on.Store(true)

	// Set-ups, each pipeline call under a span.
	var in *instance
	var collect, quantize, pack, lut []float64
	for i := 0; i < tracedSetUps; i++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		var err error
		if in, _, err = b.setUp(w, b.rec.middleware); err != nil {
			return nil, t, fmt.Errorf("set-up %d: %w", i, err)
		}
		collect = append(collect, in.art.collectS)
		quantize = append(quantize, in.art.leg.quantize)
		pack = append(pack, 1e3*in.art.leg.pack)
		lut = append(lut, 1e3*in.art.leg.lut)
	}
	defer in.close()
	v["core.collect_stats_s"] = median(collect)
	v["core.quantize_with_stats_s"] = median(quantize)
	v["core.packed_model_ms"] = median(pack)
	v["quant.ensure_lut_ms"] = median(lut)
	if w.sweepRoundS > 0 {
		for r := 0; r < 2; r++ {
			if _, err := b.sweepRound(in.art, nil); err != nil {
				return nil, t, fmt.Errorf("sweep round %d: %w", r, err)
			}
		}
	}
	b.rec.on.Store(false)

	// Replay.
	plan := makePlan(w, b.env.C4, seed, 1+replayRounds)
	b.driveRound(in, w, plan[0])
	activeMean := sampleActive(in)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var plain, traced []roundMetrics
	var tpotMean, itlP99 []float64
	var wallS, tokens float64
	for r := 1; r <= replayRounds; r++ {
		on := r%2 == 0
		b.rec.on.Store(on)
		ro := b.driveRound(in, w, plan[r])
		b.rec.on.Store(false)
		t.count(in, w, ro, nil)
		rm, err := summarise(ro)
		if err != nil {
			return nil, t, fmt.Errorf("replay round %d: %w (first failure: %v)", r, err, t.firstErr)
		}
		tpot, itl, err := cadence(ro)
		if err != nil {
			return nil, t, fmt.Errorf("replay round %d: %w", r, err)
		}
		tpotMean, itlP99 = append(tpotMean, tpot), append(itlP99, itl)
		wallS += ro.wallS
		tokens += rm.tokPerS * ro.wallS
		if on {
			traced = append(traced, rm)
		} else {
			plain = append(plain, rm)
		}
	}
	runtime.ReadMemStats(&m1)
	v["serve.active_slots_mean"] = activeMean()
	if t.firstErr != nil {
		fmt.Fprintf(log, "INCORRECT: %v\n", t.firstErr)
	}
	tokPerS := func(r roundMetrics) float64 { return r.tokPerS }
	v["trace.overhead_share"] = 1 - medianOf(traced, tokPerS)/medianOf(plain, tokPerS)
	v["runtime.allocs_per_tok"] = float64(m1.Mallocs-m0.Mallocs) / tokens
	v["runtime.gc_pause_ms_per_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / wallS
	v["runtime.heap_peak_mb"] = float64(m1.HeapSys) / (1 << 20)
	v["loadgen.tpot_mean_ms"] = median(tpotMean)
	v["loadgen.itl_p99_ms"] = median(itlP99)
	v["loadgen.late_p99_ms"] = 0
	if w.rateRPS > 0 {
		p99, err := percentile(t.late, 0.99)
		if err != nil {
			return nil, t, fmt.Errorf("lateness: %w", err)
		}
		v["loadgen.late_p99_ms"] = p99
	}
	fmt.Fprintf(log, "trace.overhead_share %.4f (traced %.1f vs untraced %.1f tok/s)\n",
		v["trace.overhead_share"], medianOf(traced, tokPerS), medianOf(plain, tokPerS))
	return in.art, t, b.replayCounters(in, v)
}

// cadence is one round's client-side token cadence: the mean over completed
// requests of (t_last - t_first)/(tokens - 1), and the 99th percentile of
// the individual inter-token gaps. It belongs to the traced run only: over
// SSE a reply often reaches the client in one read, so gaps measure how the
// events were batched, and spread 11-47% across seeds.
func cadence(ro roundObs) (tpotMean, itlP99 float64, err error) {
	var tpot, gaps []float64
	for i, o := range ro.reqs {
		if o.err == nil {
			tpot = append(tpot, o.tpotMs)
			gaps = append(gaps, ro.gaps[i]...)
		}
	}
	if itlP99, err = percentile(gaps, 0.99); err != nil {
		return 0, 0, fmt.Errorf("inter-token gaps: %w", err)
	}
	return mean(tpot), itlP99, nil
}

// sampleActive samples the live-slot count of in's replicas every 5 ms
// until the returned function is called, which reports the mean.
func sampleActive(in *instance) (stop func() float64) {
	done := make(chan struct{})
	result := make(chan float64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var sum, n float64
		for {
			select {
			case <-done:
				if n > 0 {
					sum /= n
				}
				result <- sum
				return
			case <-tick.C:
				for _, s := range in.scheds {
					sum += float64(s.Stats().Active)
				}
				n++
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}

// replayCounters reads the counters the serving stack kept during the
// replay: the schedulers' own stats and, over the wire, the router's.
func (b *bench) replayCounters(in *instance, v map[string]float64) error {
	var hits, misses, hitTok, promptTok, logical, unique float64
	for _, s := range in.scheds {
		st := s.Stats()
		hits += float64(st.PrefixCacheHits)
		misses += float64(st.PrefixCacheMisses)
		hitTok += float64(st.PrefixCacheHitTokens)
		promptTok += float64(st.PromptTokens)
		logical += float64(st.KVLogicalBytes)
		unique += float64(st.KVUniqueBytes)
		v["serve.preemptions"] += float64(st.Preemptions)
		v["serve.admission_deferred"] += float64(st.AdmissionDeferred)
		v["serve.rejected"] += float64(st.Rejected)
		v["serve.panics"] += float64(st.Panics)
		v["serve.stats_ttft_p50_ms"] = max(v["serve.stats_ttft_p50_ms"], ms(st.TTFTp50))
		v["serve.stats_itl_p99_ms"] = max(v["serve.stats_itl_p99_ms"], ms(st.ITLp99))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["serve.prefix_hit_rate"] = ratio(hits, hits+misses)
	v["serve.prefix_hit_tok_share"] = ratio(hitTok, promptTok)
	v["serve.kv_sharing_ratio"] = ratio(logical, unique)

	for _, name := range []string{"router.affinity_share", "router.replica_share_max", "router.retries", "router.failovers", "router.errors"} {
		v[name] = 0
	}
	if in.client == nil {
		return nil
	}
	resp, err := in.client.Get(in.url + "/v1/stats")
	if err != nil {
		return fmt.Errorf("router stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router stats: status %d", resp.StatusCode)
	}
	var rs struct {
		Requests  float64 `json:"router_requests"`
		Retries   float64 `json:"router_retries"`
		Failovers float64 `json:"router_failovers"`
		Spills    float64 `json:"router_spills"`
		Errors    float64 `json:"router_errors"`
		Replicas  []struct {
			Requests float64 `json:"requests"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		return fmt.Errorf("router stats: %w", err)
	}
	v["router.retries"], v["router.failovers"], v["router.errors"] = rs.Retries, rs.Failovers, rs.Errors
	// A request lands on its affinity target unless an attempt was spilled
	// or retried onto a ring successor.
	v["router.affinity_share"] = 1 - ratio(rs.Spills+rs.Retries, rs.Requests)
	var total, most float64
	for _, r := range rs.Replicas {
		total += r.Requests
		if r.Requests > most {
			most = r.Requests
		}
	}
	v["router.replica_share_max"] = ratio(most, total)
	return nil
}
