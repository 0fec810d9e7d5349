package main

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/serve"
)

// workload is one traffic mix. Every workload serves the same artefact (the
// APTQ avg-3.8-bit nano-7B, or its dequantised float twin) and differs only
// in which layer does most of the work; the reasons are in BENCHMARK.json
// and README.md.
type workload struct {
	name string

	// floatTwin serves Result.Model (bit-identical outputs, 5x the weight
	// bytes) instead of the packed model; overHTTP drives the whole wire
	// path loadgen -> router -> 2 replicas instead of Scheduler.Submit.
	floatTwin, overHTTP bool

	slots            int // per replica
	prefillChunk     int
	prefixCacheBytes int64

	// clients > 0 is a closed loop of that many callers; clients == 0 with
	// rateRPS == 0 submits the whole round at once (an offline batch);
	// rateRPS > 0 is an open loop with reqsPerRound arrivals spread over
	// reqsPerRound/rateRPS seconds.
	clients int
	rateRPS float64

	// Request shape. sharedPrefixes > 0 draws each prompt's first
	// prefixLen tokens from that many fixed prefixes.
	reqsPerRound              int
	promptLen, outLen         int
	sharedPrefixes, prefixLen int

	// roundS is what one round of traffic takes on the seed (2-core box),
	// measured; -seconds is divided by it to get the number of measured
	// rounds, so the work is fixed by the flag and not by how fast the
	// program happens to be.
	roundS float64

	// sweepRoundS > 0 adds the researcher's loop before the traffic: rounds
	// of {CollectStats; for each avg width: quantize -> pack -> LUT}, each
	// taking sweepRoundS on the seed. The loop and the traffic then get half
	// of -seconds each.
	sweepRoundS float64

	// SLO limits: 2x the seed's ttft_p90_ms and 2x the seed's 90th
	// percentile of latency on this workload (medians over rounds and over
	// ten seeds), rounded up to a whole millisecond and frozen here. A
	// request meets its SLO when it meets both. In the offline batch latency
	// is uniform over the round, so 2x its p90 is 1.8x the makespan.
	ttftLimitMs, latencyLimitMs float64
}

var workloads = []workload{
	{
		name:  "quantize-sweep",
		slots: 8, prefillChunk: 16,
		reqsPerRound: 400, promptLen: 16, outLen: 16,
		roundS: 1.6, sweepRoundS: 0.77,
		ttftLimitMs: 2860, latencyLimitMs: 2905,
	},
	{
		name:  "decode-packed",
		slots: 8, prefillChunk: 16, clients: 8,
		reqsPerRound: 160, promptLen: 4, outLen: 56,
		roundS:      1.9,
		ttftLimitMs: 9, latencyLimitMs: 189,
	},
	{
		name:  "prefill-packed",
		slots: 4, prefillChunk: 16, clients: 4,
		reqsPerRound: 400, promptLen: 48, outLen: 8,
		roundS:      2,
		ttftLimitMs: 29, latencyLimitMs: 41,
	},
	{
		// 200 req/s is half of what the stack sustains on the seed (the
		// backlog starts growing at about 385 req/s), so about one request
		// is in flight on average and arrivals overlap on a replica.
		name:      "shared-prefix-http-float",
		floatTwin: true, overHTTP: true,
		slots: 4, prefillChunk: 16, prefixCacheBytes: 16 << 20,
		rateRPS:      200,
		reqsPerRound: 400, promptLen: 40, outLen: 12,
		sharedPrefixes: 8, prefixLen: 32,
		roundS:      2,
		ttftLimitMs: 10, latencyLimitMs: 13,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rounds turns a -seconds budget into a count of measured rounds.
func rounds(seconds int, roundS float64) int {
	n := int(float64(seconds)/roundS + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

const temperature = 0.8

// prefixSeed generates the shared prefixes of shared-prefix-http-float.
const prefixSeed = 11

// planned is one request of a plan. DueMs is its arrival offset from the
// start of its round (open loop only).
type planned struct {
	ID     string  `json:"id"`
	Prompt []int   `json:"prompt"`
	Out    int     `json:"out"`
	Seed   int64   `json:"seed"`
	DueMs  float64 `json:"due_ms,omitempty"`
}

func (p planned) request() serve.Request {
	return serve.Request{ID: p.ID, Prompt: p.Prompt, MaxTokens: p.Out, Temperature: temperature, Seed: p.Seed}
}

// makePlan generates nRounds rounds of w's traffic from seed alone: the same
// seed gives byte-identical plans, and the program under test receives only
// the generated requests, never the seed. Prompts are drawn from the C4-like
// source the model was trained on; round 0 is the warm-up.
func makePlan(w workload, src data.Source, seed int64, nRounds int) [][]planned {
	// The shared prefixes are the same for every seed, and each round uses
	// each of them equally often: which replica a prefix hashes to, and so
	// how evenly the fleet is loaded, is a property of the workload, not
	// something for seeds to disagree about.
	fixed := rand.New(rand.NewSource(prefixSeed))
	var prefixes [][]int
	for i := 0; i < w.sharedPrefixes; i++ {
		prefixes = append(prefixes, src.Generate(fixed, w.prefixLen))
	}
	rng := rand.New(rand.NewSource(seed))
	plan := make([][]planned, nRounds)
	for r := range plan {
		round := make([]planned, w.reqsPerRound)
		order := rng.Perm(len(round))
		for i := range round {
			var prompt []int
			if len(prefixes) > 0 {
				prompt = append(prompt, prefixes[order[i]%len(prefixes)]...)
			}
			prompt = append(prompt, src.Generate(rng, w.promptLen-len(prompt))...)
			round[i] = planned{
				ID:     fmt.Sprintf("r%d-%d", r, i),
				Prompt: prompt,
				Out:    w.outLen,
				Seed:   rng.Int63(),
			}
		}
		if w.rateRPS > 0 {
			// One arrival in each 1/rate slot, at a uniform offset within
			// it: the rate is exact, the schedule is seeded and aperiodic,
			// and two arrivals are rarely closer than a service time.
			slotMs := 1e3 / w.rateRPS
			for i := range round {
				round[i].DueMs = (float64(i) + rng.Float64()) * slotMs
			}
		}
		plan[r] = round
	}
	return plan
}
