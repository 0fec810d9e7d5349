package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/eval"
	"repro/internal/serve"
)

// metric is one reported number, with all its digits.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names every end-to-end metric and its unit; BENCHMARK.json
// declares the same set (a unit test holds the two together).
var endToEndUnits = map[string]string{
	"setup_s":               "s",
	"quantize_s":            "s",
	"ppl_c4":                "ppl",
	"weight_resident_bytes": "bytes",
	"kv_high_water_bytes":   "bytes",
	"tok_per_s":             "tok/s",
	"prompt_tok_per_s":      "tok/s",
	"ttft_p50_ms":           "ms",
	"ttft_p90_ms":           "ms",
	"latency_p50_ms":        "ms",
	"cpu_ms_per_tok":        "ms",
	"slo_met_share":         "share",
	"ok_share":              "share",
}

// coldSetUps is how many times a run sets the stack up from fixture bytes;
// setup_s and quantize_s are medians over them (one shot swung by 7%), and
// the last instance serves the traffic.
const coldSetUps = 5

// oracleShare of the measured requests are replayed on serve.Sequential and
// must match token for token.
const oracleShare = 0.05

// roundMetrics are the per-round numbers a run reports the median of.
// latencyP90 is not reported: the SLO's latency limit is derived from it.
type roundMetrics struct {
	tokPerS, promptTokPerS float64
	ttftP50, ttftP90       float64
	latencyP50, latencyP90 float64
	cpuMsPerTok            float64
}

// summarise turns one round's observations into its metrics. Failed
// requests contribute no latency sample and no tokens.
func summarise(ro roundObs) (roundMetrics, error) {
	var ttft, latency []float64
	var gen, prompt int
	for i, o := range ro.reqs {
		if o.err != nil {
			continue
		}
		ttft = append(ttft, o.ttftMs)
		latency = append(latency, o.latencyMs)
		gen += len(o.tokens)
		prompt += len(ro.plan[i].Prompt)
	}
	if gen == 0 {
		return roundMetrics{}, fmt.Errorf("round completed no request")
	}
	rm := roundMetrics{
		tokPerS:       float64(gen) / ro.wallS,
		promptTokPerS: float64(prompt) / ro.wallS,
		ttftP50:       median(ttft),
		latencyP50:    median(latency),
		cpuMsPerTok:   1e3 * ro.cpuS / float64(gen+prompt),
	}
	var err error
	if rm.ttftP90, err = percentile(ttft, 0.90); err != nil {
		return rm, fmt.Errorf("ttft: %w", err)
	}
	if rm.latencyP90, err = percentile(latency, 0.90); err != nil {
		return rm, fmt.Errorf("latency: %w", err)
	}
	return rm, nil
}

// medianOf reports the median over rounds of one per-round metric.
func medianOf(rms []roundMetrics, f func(roundMetrics) float64) float64 {
	xs := make([]float64, len(rms))
	for i, rm := range rms {
		xs[i] = f(rm)
	}
	return median(xs)
}

// tally counts what happened to the measured requests.
type tally struct {
	sent, ok       int // ok: completed normally and, if sampled, matched the oracle
	sloMet         int
	oracleChecked  int
	oracleMismatch int
	late           []float64
	firstErr       error
}

// count folds one measured round into t, replaying a sample drawn from rng
// (none when rng is nil) on the sequential oracle.
func (t *tally) count(in *instance, w workload, ro roundObs, rng *rand.Rand) {
	model := in.art.served(w)
	for i, o := range ro.reqs {
		t.sent++
		t.late = append(t.late, o.lateMs)
		if o.err != nil {
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("request %s: %w", ro.plan[i].ID, o.err)
			}
			continue
		}
		good := true
		if rng != nil && rng.Float64() < oracleShare {
			t.oracleChecked++
			want := serve.Sequential(model, ro.plan[i].request(), serve.Options{EOS: -1})
			if want.Err != nil || !slices.Equal(want.Tokens, o.tokens) {
				t.oracleMismatch++
				good = false
				if t.firstErr == nil {
					t.firstErr = fmt.Errorf("request %s: tokens differ from serve.Sequential", ro.plan[i].ID)
				}
			}
		}
		if good {
			t.ok++
		}
		if o.ttftMs <= w.ttftLimitMs && o.latencyMs <= w.latencyLimitMs {
			t.sloMet++
		}
	}
}

// sweepRound is one pass of the researcher's loop: collect statistics once,
// then quantize -> pack -> build LUTs at each average width. It returns the
// quantize_s sample (the statistics plus the served width's leg) and, when
// ppl is non-nil, fills it with the C4 perplexity at each width (untimed).
func (b *bench) sweepRound(art *artefact, ppl []float64) (float64, error) {
	defer b.rec.span("sweep")()
	st, collectS, err := b.collectStats(art.fp, art.calib)
	if err != nil {
		return 0, err
	}
	quantizeS := collectS
	for i, ratio := range sweepRatios {
		_, qm, lt, err := b.quantizeLeg(art.fp, st, art.calib, ratio)
		if err != nil {
			return 0, err
		}
		if ratio == servedRatio {
			quantizeS += lt.total()
		}
		if ppl != nil {
			ppl[i] = eval.PerplexityOnSegments(qm.Model, b.evalSegments())
		}
	}
	return quantizeS, nil
}

// runWorkload is the untraced run: every end-to-end metric of one workload.
func (b *bench) runWorkload(w workload, seed int64, seconds int, log io.Writer) (result, error) {
	// Cold set-ups; the last one serves.
	var in *instance
	var setupS, quantizeS []float64
	for i := 0; i < coldSetUps; i++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		var s float64
		var err error
		if in, s, err = b.setUp(w, nil); err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, s)
		quantizeS = append(quantizeS, in.art.quantizeS)
	}
	defer in.close()
	art := in.art

	ppl := eval.PerplexityOnSegments(art.served(w), b.evalSegments())
	correct := !math.IsNaN(ppl) && !math.IsInf(ppl, 0)

	// The researcher's loop takes half of -seconds, the traffic the other
	// half. Its rounds are further quantize_s samples: this is the workload
	// where the pipeline is the work.
	if w.sweepRoundS > 0 {
		seconds /= 2
		levels := make([]float64, len(sweepRatios))
		n := rounds(seconds, w.sweepRoundS)
		for r := 0; r < n; r++ {
			runtime.GC()
			var out []float64
			if r == 0 {
				out = levels
			}
			q, err := b.sweepRound(art, out)
			if err != nil {
				return result{}, fmt.Errorf("sweep round %d: %w", r, err)
			}
			quantizeS = append(quantizeS, q)
		}
		fmt.Fprintf(log, "sweep: %d rounds; C4 ppl at avg 4.0 / 3.8 / 3.5 bits = %.4f / %.4f / %.4f\n",
			n, levels[0], levels[1], levels[2])
		// The pipeline is deterministic: re-quantizing at the served width
		// must reproduce the served model's perplexity exactly.
		if levels[1] != ppl {
			correct = false
			fmt.Fprintf(log, "INCORRECT: re-quantized 3.8-bit ppl %v != served ppl %v\n", levels[1], ppl)
		}
	}

	// Traffic: round 0 warms up and is discarded.
	n := rounds(seconds, w.roundS)
	plan := makePlan(w, b.env.C4, seed, 1+n)
	b.driveRound(in, w, plan[0])
	var rms []roundMetrics
	var t tally
	oracle := rand.New(rand.NewSource(seed))
	for r := 1; r <= n; r++ {
		ro := b.driveRound(in, w, plan[r])
		t.count(in, w, ro, oracle)
		rm, err := summarise(ro)
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w (first failure: %v)", r, err, t.firstErr)
		}
		rms = append(rms, rm)
		fmt.Fprintf(log, "round %2d: %.3f s  %8.1f tok/s  ttft p50 %.3f p90 %.3f ms  latency p50 %.3f p90 %.3f ms\n",
			r, ro.wallS, rm.tokPerS, rm.ttftP50, rm.ttftP90, rm.latencyP50, rm.latencyP90)
	}
	fmt.Fprintf(log, "requests_sent %d  requests_ok %d  requests_failed %d  oracle_checked %d  oracle_mismatch %d\n",
		t.sent, t.ok, t.sent-t.ok, t.oracleChecked, t.oracleMismatch)
	if w.rateRPS > 0 {
		// Logged only, so a run too short for a p99 goes without one.
		fmt.Fprintf(log, "generator lateness: p50 %.3f ms", median(t.late))
		if p99, err := percentile(t.late, 0.99); err == nil {
			fmt.Fprintf(log, "  p99 %.3f ms", p99)
		}
		fmt.Fprintln(log)
	}
	if w.overHTTP {
		fmt.Fprintf(log, "per-replica requests: %v\n", in.replicaSplit())
	}
	if t.firstErr != nil {
		correct = false
		fmt.Fprintf(log, "INCORRECT: %v\n", t.firstErr)
	}

	values := map[string]float64{
		"setup_s":               median(setupS),
		"quantize_s":            median(quantizeS),
		"ppl_c4":                ppl,
		"weight_resident_bytes": float64(art.weightResidentBytes(w)),
		"kv_high_water_bytes":   float64(in.kvHighWater()),
		"tok_per_s":             medianOf(rms, func(r roundMetrics) float64 { return r.tokPerS }),
		"prompt_tok_per_s":      medianOf(rms, func(r roundMetrics) float64 { return r.promptTokPerS }),
		"ttft_p50_ms":           medianOf(rms, func(r roundMetrics) float64 { return r.ttftP50 }),
		"ttft_p90_ms":           medianOf(rms, func(r roundMetrics) float64 { return r.ttftP90 }),
		"latency_p50_ms":        medianOf(rms, func(r roundMetrics) float64 { return r.latencyP50 }),
		"cpu_ms_per_tok":        medianOf(rms, func(r roundMetrics) float64 { return r.cpuMsPerTok }),
		"slo_met_share":         float64(t.sloMet) / float64(t.sent),
		"ok_share":              float64(t.ok) / float64(t.sent),
	}
	return result{Correct: correct, Attempted: t.sent, Failed: t.sent - t.ok, Metrics: withUnits(values, endToEndUnits)}, nil
}

// withUnits attaches the declared unit to every value; a value without a
// declared unit, or a declared metric without a value, is a bug here.
func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			panic("bench: declared metric not measured: " + name)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	for name := range values {
		if _, ok := units[name]; !ok {
			panic("bench: measured metric not declared: " + name)
		}
	}
	return out
}
