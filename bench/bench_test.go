package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// fixtureSHA256 pins bench/fixtures/nano7b-quick.f64. `go run ./bench
// -mkfixture -check` proves the bytes are what training produces today.
const fixtureSHA256 = "86c06168bd41860fda1b597481913242ff11f1b26a2e6e29fb9ebd1620c09dd0"

func TestFixturePinnedAndValidated(t *testing.T) {
	sum := sha256.Sum256(fixtureBytes)
	if got := hex.EncodeToString(sum[:]); got != fixtureSHA256 {
		t.Fatalf("fixture sha256 = %s, pinned %s", got, fixtureSHA256)
	}
	m, err := decodeFixture(fixtureBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeFixture(m), fixtureBytes) {
		t.Fatal("decode -> encode does not reproduce the fixture")
	}
	// A fixture for another architecture, or a damaged one, fails loudly.
	wrongCount := append([]byte(nil), fixtureBytes...)
	wrongCount[len(fixtureMagic)]++
	wrongShape := append([]byte(nil), fixtureBytes...)
	wrongShape[len(fixtureMagic)+4]++
	for name, b := range map[string][]byte{
		"empty":        nil,
		"bad magic":    append([]byte("NOTAPTQ\n"), fixtureBytes[8:]...),
		"tensor count": wrongCount,
		"tensor shape": wrongShape,
		"truncated":    fixtureBytes[:len(fixtureBytes)-8],
		"trailing":     append(append([]byte(nil), fixtureBytes...), 0),
	} {
		if _, err := decodeFixture(b); err == nil {
			t.Errorf("%s: decodeFixture accepted it", name)
		}
	}
}

// planBytes is a plan's canonical serialisation.
func planBytes(t *testing.T, plan [][]planned) []byte {
	t.Helper()
	b, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	src := newBench().env.C4
	for _, w := range workloads {
		a, again, other := makePlan(w, src, 7, 3), makePlan(w, src, 7, 3), makePlan(w, src, 8, 3)
		if !bytes.Equal(planBytes(t, a), planBytes(t, again)) {
			t.Errorf("%s: same seed, different plans", w.name)
		}
		if bytes.Equal(planBytes(t, a), planBytes(t, other)) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", w.name)
		}
		for _, round := range a {
			if len(round) != w.reqsPerRound {
				t.Fatalf("%s: round of %d requests, want %d", w.name, len(round), w.reqsPerRound)
			}
			for _, p := range round {
				if len(p.Prompt) != w.promptLen || p.Out != w.outLen {
					t.Fatalf("%s: request %s is %d+%d tokens, want %d+%d", w.name, p.ID, len(p.Prompt), p.Out, w.promptLen, w.outLen)
				}
			}
			if w.rateRPS > 0 && !sort.SliceIsSorted(round, func(i, j int) bool { return round[i].DueMs < round[j].DueMs }) {
				t.Errorf("%s: arrivals out of order", w.name)
			}
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median(5,1,9) = %v", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median(4,1,9,2) = %v", got)
	}
	// One slow round does not move the reported number.
	rms := []roundMetrics{{tokPerS: 4800}, {tokPerS: 4810}, {tokPerS: 2400}, {tokPerS: 4790}, {tokPerS: 4805}}
	if got := medianOf(rms, func(r roundMetrics) float64 { return r.tokPerS }); got != 4800 {
		t.Errorf("median of rounds = %v, want 4800", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
		}
		return xs
	}
	if v, err := percentile(ramp(100), 0.90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(ramp(99), 0.90); err == nil {
		t.Error("p90 of 99 samples reported; only 9 lie beyond it")
	}
	if v, err := percentile(ramp(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(ramp(999), 0.99); err == nil {
		t.Error("p99 of 999 samples reported; only 9 lie beyond it")
	}
}

func TestQuartilesArePythons(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v; want 1, 4", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// A stub server that answers one request at a time, 20 ms each: requests
// that were due while it was busy must be charged the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	var busy sync.Mutex
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		busy.Lock()
		defer busy.Unlock()
		time.Sleep(service)
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "data: {\"token\":1,\"text\":\"a\",\"index\":0}\n\n")
		fmt.Fprint(w, "data: {\"token\":2,\"text\":\"b\",\"index\":1}\n\n")
		fmt.Fprint(w, "data: {\"tokens\":[1,2],\"text\":\"a b\",\"finish_reason\":\"length\"}\n\n")
	}))
	defer stub.Close()
	w := workload{overHTTP: true, rateRPS: 1000}
	in := &instance{url: stub.URL, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 8}}}
	plan := make([]planned, 5)
	for i := range plan {
		plan[i] = planned{ID: fmt.Sprint(i), Prompt: []int{1}, Out: 2, DueMs: float64(i)}
	}
	ro := newBench().driveRound(in, w, plan)
	if err := firstError(ro); err != nil {
		t.Fatal(err)
	}
	var ttft []float64
	for _, o := range ro.reqs {
		ttft = append(ttft, o.ttftMs)
	}
	sort.Float64s(ttft)
	// All five were due within 4 ms; the server takes them one by one, so
	// the last is answered ~100 ms after it was due. Timing from the moment
	// the server got round to it would report ~20 ms for every request.
	if last, want := ttft[len(ttft)-1], 4.5*ms(service); last < want {
		t.Errorf("slowest TTFT %.1f ms; a stalled server must inflate it past %.0f ms (all: %.1f)", last, want, ttft)
	}
	if ttft[0] < ms(service) {
		t.Errorf("fastest TTFT %.1f ms is below the service time", ttft[0])
	}
}

// The ring identities are fixed strings, so which replica serves a prefix
// does not depend on the listeners' random ports: two stacks (as good as
// two processes — every listener gets a fresh port) split the same plan
// identically.
func TestReplicaSplitIsStableAcrossStacks(t *testing.T) {
	w, err := findWorkload("shared-prefix-http-float")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := decodeFixture(fixtureBytes)
	if err != nil {
		t.Fatal(err)
	}
	// The split depends on routing alone, so the unquantized model serves.
	art := &artefact{fp: fp, res: &core.Result{Model: fp}}
	b := newBench()
	w.rateRPS, w.clients, w.outLen = 0, 4, 2
	plan := makePlan(w, b.env.C4, 5, 1)[0][:48]
	var splits [2][]int64
	for i := range splits {
		in, err := newInstance(art, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		ro := b.driveRound(in, w, plan)
		splits[i] = in.replicaSplit()
		in.close()
		if err := firstError(ro); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(splits[0], splits[1]) {
		t.Errorf("per-replica split %v then %v for the same plan", splits[0], splits[1])
	}
	if splits[0][0] == 0 || splits[0][1] == 0 {
		t.Errorf("split %v: one replica got nothing, the ring is not spreading prefixes", splits[0])
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the program declare the same metrics, units and
// workloads; withUnits makes a run print exactly the declared set.
func TestManifestMatchesProgram(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("manifest has %d workloads, the program %d", len(names), len(workloads))
	}
	check := func(kind string, decl []declared, units map[string]string, bounded bool) {
		seen := map[string]bool{}
		for _, d := range decl {
			names = append(names, d.Name)
			seen[d.Name] = true
			if unit, ok := units[d.Name]; !ok {
				t.Errorf("%s metric %s is declared but never printed", kind, d.Name)
			} else if unit != d.Unit {
				t.Errorf("%s metric %s: declared unit %q, printed %q", kind, d.Name, d.Unit, unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
		}
		for name := range units {
			if !seen[name] {
				t.Errorf("%s metric %s is printed but not declared", kind, name)
			}
		}
	}
	check("end-to-end", m.EndToEnd, endToEndUnits, true)
	check("per-layer", m.PerLayer, perLayerUnits, false)
	used := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	// setup_s is required, and carries the largest bound.
	var setup declared
	for _, d := range m.EndToEnd {
		if d.Name == "setup_s" {
			setup = d
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be declared, in s, lower is better: %+v", setup)
	}
	for _, d := range m.EndToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound (%v) than setup_s (%v)", d.Name, d.Bound, setup.Bound)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("latency 100 -> 110 worsens by %v", got)
	}
	if got := worsening(100, 90, "higher"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100 -> 90 worsens by %v", got)
	}
	if got := worsening(100, 90, "lower"); got >= 0 {
		t.Errorf("latency 100 -> 90 is an improvement, got %v", got)
	}
}
