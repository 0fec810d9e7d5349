// End-to-end tests of the routing tier: real serve.Server replicas behind
// httptest listeners, a real Router in front, -race throughout. The two
// headline properties:
//
//   - Fault tolerance: killing a replica mid-load produces zero
//     client-visible errors, and every reply — streamed or not — is
//     bit-identical to the serve.Sequential reference.
//   - Cache affinity: prefix-sharing workloads routed by the ring see a
//     fleet-aggregate prefix-cache hit rate matching a single replica's,
//     while a round-robin control collapses.
package router_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/serve"
)

// fleet is a set of in-process replicas plus a router in front.
type fleet struct {
	servers  []*serve.Server
	backends []*httptest.Server
	rt       *router.Router
	front    *httptest.Server
	m        *model.Model // reference copy, identical to every replica's
	opts     serve.Options
}

func (f *fleet) close() {
	f.front.Close()
	f.rt.Close()
	for _, b := range f.backends {
		b.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// killReplica simulates a crash: in-flight connections are severed, new
// ones refused.
func (f *fleet) killReplica(i int) {
	f.backends[i].CloseClientConnections()
	f.backends[i].Close()
}

func fastRouterOptions(urls []string) router.Options {
	return router.Options{
		Replicas:      urls,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		EjectAfter:    2,
		BackoffMin:    20 * time.Millisecond,
		BackoffMax:    200 * time.Millisecond,
		Seed:          42,
	}
}

// newFleet boots n identical replicas (same model seed — the determinism
// contract's precondition) and a router over them.
func newFleet(t *testing.T, n int, serveOpts serve.Options, tweak func(*router.Options)) *fleet {
	t.Helper()
	f := &fleet{m: model.New(model.Tiny(), 1), opts: serveOpts}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := serve.NewServer(model.New(model.Tiny(), 1), serveOpts)
		backend := httptest.NewServer(srv.Handler())
		f.servers = append(f.servers, srv)
		f.backends = append(f.backends, backend)
		urls[i] = backend.URL
	}
	ropts := fastRouterOptions(urls)
	if tweak != nil {
		tweak(&ropts)
	}
	rt, err := router.New(ropts)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	f.front = httptest.NewServer(rt.Handler())
	return f
}

// testRequests builds a varied batch: distinct seeds and temperatures,
// prompts long enough to span KV pages (so routing keys differ and spread
// across the ring).
func testRequests(n int) []serve.GenerateRequest {
	reqs := make([]serve.GenerateRequest, n)
	for i := range reqs {
		prompt := make([]int, 18+(i%8))
		for j := range prompt {
			prompt[j] = (i*7 + j*3) % 32
		}
		reqs[i] = serve.GenerateRequest{
			ID:          fmt.Sprintf("req-%d", i),
			Tokens:      prompt,
			MaxTokens:   6 + i%4,
			Temperature: float64(i%3) * 0.5,
			Seed:        int64(i),
		}
	}
	return reqs
}

// reference computes the oracle reply via serve.Sequential on an
// identical model copy.
func (f *fleet) reference(req serve.GenerateRequest) serve.Result {
	return serve.Sequential(f.m, serve.Request{
		ID:          req.ID,
		Prompt:      req.Tokens,
		MaxTokens:   req.MaxTokens,
		Temperature: req.Temperature,
		Seed:        req.Seed,
		Stop:        req.Stop,
	}, f.opts)
}

// doPlain posts a non-streaming generate; goroutine-safe (no testing.T).
func doPlain(url string, req serve.GenerateRequest) (int, []byte, error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// doStream posts a streaming generate and assembles it, enforcing SSE
// integrity as it reads: token event indices contiguous from 0 (the
// property resume dedup must preserve), exactly one non-error final
// event. Goroutine-safe.
func doStream(url string, req serve.GenerateRequest) ([]serve.StreamEvent, serve.GenerateResponse, error) {
	req.Stream = true
	var final serve.GenerateResponse
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, final, fmt.Errorf("%s: stream status %d: %s", req.ID, resp.StatusCode, b)
	}
	var events []serve.StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		payload := strings.TrimPrefix(line, "data: ")
		if strings.Contains(payload, "finish_reason") {
			if err := json.Unmarshal([]byte(payload), &final); err != nil {
				return nil, final, fmt.Errorf("%s: final event: %v", req.ID, err)
			}
			if final.Error != "" || final.FinishReason == string(serve.FinishError) {
				return nil, final, fmt.Errorf("%s: stream finished with error %q", req.ID, final.Error)
			}
			return events, final, nil
		}
		var ev serve.StreamEvent
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			return nil, final, fmt.Errorf("%s: token event: %v", req.ID, err)
		}
		if ev.Index != len(events) {
			return nil, final, fmt.Errorf("%s: event index %d at position %d — resume dedup broke the sequence", req.ID, ev.Index, len(events))
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, final, fmt.Errorf("%s: stream read: %v", req.ID, err)
	}
	return nil, final, fmt.Errorf("%s: stream ended without a final event", req.ID)
}

// checkAgainstReference verifies a reply (events may be nil for plain
// replies) token-for-token against the Sequential oracle.
func (f *fleet) checkAgainstReference(req serve.GenerateRequest, events []serve.StreamEvent, got serve.GenerateResponse) error {
	want := f.reference(req)
	if fmt.Sprint(got.Tokens) != fmt.Sprint(want.Tokens) {
		return fmt.Errorf("%s: tokens %v, reference %v", req.ID, got.Tokens, want.Tokens)
	}
	if got.FinishReason != string(want.FinishReason) {
		return fmt.Errorf("%s: finish %q, reference %q", req.ID, got.FinishReason, want.FinishReason)
	}
	if events != nil {
		if len(events) != len(want.Tokens) {
			return fmt.Errorf("%s: %d token events, reference has %d tokens", req.ID, len(events), len(want.Tokens))
		}
		for i, ev := range events {
			if ev.Token != want.Tokens[i] {
				return fmt.Errorf("%s: streamed token %d = %d, reference %d", req.ID, i, ev.Token, want.Tokens[i])
			}
		}
	}
	return nil
}

// routerStatsJSON fetches the router's /v1/stats.
func routerStatsJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

// TestRouterMatchesDirectAndSequential: through the router, every reply —
// plain and streamed — is byte-identical to asking a replica directly,
// and token-identical to the Sequential oracle. The router is invisible.
func TestRouterMatchesDirectAndSequential(t *testing.T) {
	f := newFleet(t, 3, serve.DefaultOptions(), nil)
	defer f.close()

	for _, req := range testRequests(9) {
		code, viaRouter, err := doPlain(f.front.URL, req)
		if err != nil || code != http.StatusOK {
			t.Fatalf("%s: status %d, err %v: %s", req.ID, code, err, viaRouter)
		}
		_, direct, err := doPlain(f.backends[0].URL, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaRouter, direct) {
			t.Fatalf("%s: router reply differs from direct replica reply:\n%s\nvs\n%s", req.ID, viaRouter, direct)
		}
		var got serve.GenerateResponse
		if err := json.Unmarshal(viaRouter, &got); err != nil {
			t.Fatal(err)
		}
		if err := f.checkAgainstReference(req, nil, got); err != nil {
			t.Fatal(err)
		}

		events, final, err := doStream(f.front.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.checkAgainstReference(req, events, final); err != nil {
			t.Fatal(err)
		}
	}

	st := routerStatsJSON(t, f.front.URL)
	if got := num(st, "router_requests"); got != 18 {
		t.Fatalf("router_requests = %v, want 18", got)
	}
	if num(st, "router_errors") != 0 {
		t.Fatalf("router_errors = %v, want 0", num(st, "router_errors"))
	}
	// Fleet counters are the sums of the replicas' own: ticks and
	// decode_rows (their ratio is the mean decode batch) included.
	var ticks, decodeRows int64
	for _, srv := range f.servers {
		ss := srv.Scheduler().Stats()
		ticks, decodeRows = ticks+ss.Ticks, decodeRows+ss.DecodeRows
	}
	if ticks == 0 || decodeRows == 0 || num(st, "ticks") != float64(ticks) || num(st, "decode_rows") != float64(decodeRows) {
		t.Fatalf("fleet ticks/decode_rows = %v/%v, want the replicas' sums %d/%d (non-zero)", num(st, "ticks"), num(st, "decode_rows"), ticks, decodeRows)
	}
}

// TestRouterKillReplicaMidLoad is the headline fault-tolerance property:
// a replica killed (connections severed, listener closed) while a
// concurrent mixed stream/non-stream load runs produces ZERO
// client-visible errors, and every reply is bit-identical to the
// Sequential reference — the failover is genuinely transparent.
func TestRouterKillReplicaMidLoad(t *testing.T) {
	f := newFleet(t, 3, serve.DefaultOptions(), nil)
	defer f.close()

	reqs := testRequests(36)
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	started := make(chan struct{})
	for i, req := range reqs {
		i, req := i, req
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-started
			if i%2 == 0 {
				code, body, err := doPlain(f.front.URL, req)
				if err != nil {
					errs[i] = err
					return
				}
				if code != http.StatusOK {
					errs[i] = fmt.Errorf("%s: status %d: %s", req.ID, code, body)
					return
				}
				var got serve.GenerateResponse
				if err := json.Unmarshal(body, &got); err != nil {
					errs[i] = err
					return
				}
				errs[i] = f.checkAgainstReference(req, nil, got)
				return
			}
			events, final, err := doStream(f.front.URL, req)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = f.checkAgainstReference(req, events, final)
		}()
	}
	close(started)
	// Let the load get going, then kill a replica out from under it.
	time.Sleep(30 * time.Millisecond)
	f.killReplica(1)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The fleet kept every promise; now confirm the router noticed the
	// death: the dead replica must get ejected (by request failures or
	// probe failures, whichever won the race).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := routerStatsJSON(t, f.front.URL)
		if num(st, "router_errors") != 0 {
			t.Fatalf("router_errors = %v, want 0", num(st, "router_errors"))
		}
		if num(st, "router_ejections") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead replica never ejected: %v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterStreamResumeBitIdentical forces the mid-stream failover path
// deterministically: a transport that cuts every stream from one replica
// after a few token events. Streams that start there must resume on a
// ring successor with no duplicated or missing token — assembled output
// bit-identical to the reference.
func TestRouterStreamResumeBitIdentical(t *testing.T) {
	cut := &cutReplicaTransport{inner: http.DefaultTransport, after: 180}
	f := newFleet(t, 3, serve.DefaultOptions(), func(o *router.Options) {
		o.Transport = cut
		o.EjectAfter = 1000 // isolate resume logic from the breaker
	})
	defer f.close()
	cut.victim.Store(f.backends[0].URL)

	for _, req := range testRequests(12) {
		req.MaxTokens = 10 // long enough to out-run the cut budget
		events, final, err := doStream(f.front.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.checkAgainstReference(req, events, final); err != nil {
			t.Fatal(err)
		}
	}
	st := routerStatsJSON(t, f.front.URL)
	if num(st, "router_retries") == 0 {
		t.Fatalf("the cut transport never forced a retry: %v", st)
	}
	if num(st, "router_errors") != 0 {
		t.Fatalf("router_errors = %v, want 0", num(st, "router_errors"))
	}
}

// TestRouterSpillOnDraining: a draining replica (healthz 503, Submit
// rejected) loses its traffic to ring successors — clients see nothing,
// the router counts spills, PR-6 drain semantics hold across the fleet.
func TestRouterSpillOnDraining(t *testing.T) {
	f := newFleet(t, 3, serve.DefaultOptions(), nil)
	defer f.close()

	req := testRequests(1)[0]
	code, body, err := doPlain(f.front.URL, req)
	if err != nil || code != http.StatusOK {
		t.Fatalf("warm request: status %d err %v: %s", code, err, body)
	}
	// Find where it landed and drain that replica.
	target := -1
	for i, s := range f.servers {
		if s.Scheduler().Stats().Submitted == 1 {
			target = i
		}
	}
	if target < 0 {
		t.Fatal("could not locate the affinity target")
	}
	f.servers[target].SetDraining(true)
	f.servers[target].Scheduler().Drain()

	for i := 0; i < 3; i++ {
		code, body, err := doPlain(f.front.URL, req)
		if err != nil || code != http.StatusOK {
			t.Fatalf("post-drain request %d: status %d err %v: %s", i, code, err, body)
		}
	}
	if got := f.servers[target].Scheduler().Stats().Submitted; got != 1 {
		t.Fatalf("draining replica admitted %d requests, want 1 (pre-drain only)", got)
	}
	if st := routerStatsJSON(t, f.front.URL); num(st, "router_spills") == 0 {
		t.Fatalf("router_spills = 0 after draining the affinity target: %v", st)
	}
}

// TestRouterCacheAffinity: the reason the ring exists. A workload of
// prefix groups (shared 16-token page, varying tails) routed by prefix
// affinity keeps the fleet-aggregate hit rate at single-replica levels; a
// round-robin control over identical replicas collapses, because every
// group's pages must be re-warmed on every replica.
func TestRouterCacheAffinity(t *testing.T) {
	serveOpts := serve.DefaultOptions()
	serveOpts.PrefixCacheBytes = 1 << 20

	const groups, perGroup = 6, 6
	makeReq := func(g, r int) serve.GenerateRequest {
		prompt := make([]int, 18)
		for j := 0; j < 16; j++ {
			prompt[j] = (g*5 + j) % 32 // page shared within the group
		}
		prompt[16], prompt[17] = r%32, (g+r)%32 // tail varies per request
		return serve.GenerateRequest{
			ID: fmt.Sprintf("g%dr%d", g, r), Tokens: prompt, MaxTokens: 4, Seed: int64(g*100 + r),
		}
	}

	// Affinity fleet: all traffic through the router.
	f := newFleet(t, 3, serveOpts, nil)
	for g := 0; g < groups; g++ {
		for r := 0; r < perGroup; r++ {
			code, body, err := doPlain(f.front.URL, makeReq(g, r))
			if err != nil || code != http.StatusOK {
				t.Fatalf("affinity g%dr%d: status %d err %v: %s", g, r, code, err, body)
			}
		}
	}
	st := routerStatsJSON(t, f.front.URL)
	affHits, affMisses := num(st, "prefix_cache_hits"), num(st, "prefix_cache_misses")
	f.close()

	// Control fleet: identical workload, round-robin straight at replicas.
	c := newFleet(t, 3, serveOpts, nil)
	i := 0
	for g := 0; g < groups; g++ {
		for r := 0; r < perGroup; r++ {
			code, body, err := doPlain(c.backends[i%3].URL, makeReq(g, r))
			if err != nil || code != http.StatusOK {
				t.Fatalf("control g%dr%d: status %d err %v: %s", g, r, code, err, body)
			}
			i++
		}
	}
	var rrHits, rrMisses float64
	for _, s := range c.servers {
		cst := s.Scheduler().Stats()
		rrHits += float64(cst.PrefixCacheHits)
		rrMisses += float64(cst.PrefixCacheMisses)
	}
	c.close()

	affRate := affHits / (affHits + affMisses)
	rrRate := rrHits / (rrHits + rrMisses)
	t.Logf("affinity hit rate %.3f (%v/%v), round-robin %.3f (%v/%v)",
		affRate, affHits, affHits+affMisses, rrRate, rrHits, rrHits+rrMisses)
	// Single-replica expectation for this workload: 1 miss + (perGroup-1)
	// hits per group ≈ 0.83. Affinity must hold that; round-robin divides
	// each group across replicas and collapses toward 0.5.
	if affRate < 0.8 {
		t.Fatalf("affinity routing hit rate %.3f, want ≥ 0.8 (single-replica level)", affRate)
	}
	if rrRate > affRate-0.2 {
		t.Fatalf("round-robin control rate %.3f not meaningfully below affinity %.3f", rrRate, affRate)
	}
}

// TestRouterDrainRejects: Drain mirrors the replica semantics at the
// routing tier — healthz flips to 503/"draining", new generates get 503.
func TestRouterDrainRejects(t *testing.T) {
	f := newFleet(t, 2, serve.DefaultOptions(), nil)
	defer f.close()

	f.rt.Drain()
	code, body, err := doPlain(f.front.URL, testRequests(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining router answered %d: %s", code, body)
	}
	hresp, err := http.Get(f.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h map[string]any
	_ = json.NewDecoder(hresp.Body).Decode(&h)
	if hresp.StatusCode != http.StatusServiceUnavailable || h["status"] != "draining" {
		t.Fatalf("draining router healthz: %d %v", hresp.StatusCode, h)
	}
	if st := routerStatsJSON(t, f.front.URL); num(st, "router_rejected") == 0 {
		t.Fatal("router_rejected = 0 after a rejected request")
	}
}

// TestRouterHealthIdentity: the router's /healthz carries the replica
// model identity (model, vocab, maxseq) so clients that size their
// requests from it — loadgen does — work unchanged against the router.
func TestRouterHealthIdentity(t *testing.T) {
	f := newFleet(t, 2, serve.DefaultOptions(), nil)
	defer f.close()

	resp, err := http.Get(f.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, h)
	}
	if h["model"] != "tiny" || h["vocab"] != float64(32) || h["maxseq"] != float64(32) {
		t.Fatalf("healthz identity: %v", h)
	}
	if h["replicas"] != float64(2) || h["healthy"] != float64(2) {
		t.Fatalf("healthz fleet view: %v", h)
	}
}

// TestRouterTextPrompt: text prompts tokenize through the same vocabulary
// as the replicas, so both request forms work through the router and
// replies stay byte-identical to a direct replica's.
func TestRouterTextPrompt(t *testing.T) {
	f := newFleet(t, 3, serve.DefaultOptions(), nil)
	defer f.close()

	// Build the prompt from real vocabulary words (the replicas and the
	// router construct the same deterministic synthetic vocabulary).
	v := data.NewVocabulary(model.Tiny().Vocab)
	words := []string{v.Word(3), v.Word(7), v.Word(11), v.Word(2), v.Word(29)}
	req := serve.GenerateRequest{ID: "text", Prompt: strings.Join(words, " "), MaxTokens: 4, Seed: 9}
	code, viaRouter, err := doPlain(f.front.URL, req)
	if err != nil || code != http.StatusOK {
		t.Fatalf("status %d err %v: %s", code, err, viaRouter)
	}
	_, direct, err := doPlain(f.backends[0].URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaRouter, direct) {
		t.Fatalf("text reply differs through router:\n%s\nvs\n%s", viaRouter, direct)
	}
}

// TestRouterStreamQueryParam: the wire supports two ways to ask for a
// stream — the body flag and ?stream=1 — and the router must honor both.
// The query form is what aptq-loadgen uses, and the router has to request
// SSE from the upstream explicitly (the forwarded body alone says
// nothing about streaming).
func TestRouterStreamQueryParam(t *testing.T) {
	f := newFleet(t, 2, serve.DefaultOptions(), nil)
	defer f.close()

	req := serve.GenerateRequest{ID: "qstream", Tokens: []int{1, 2, 3}, MaxTokens: 5, Seed: 7}
	body, _ := json.Marshal(req) // Stream stays false: only the URL asks
	resp, err := http.Post(f.front.URL+"/v1/generate?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q, want an SSE stream", ct)
	}
	var events []serve.StreamEvent
	var final serve.GenerateResponse
	gotFinal := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		payload, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if strings.Contains(payload, "finish_reason") {
			if err := json.Unmarshal([]byte(payload), &final); err != nil {
				t.Fatalf("final event: %v", err)
			}
			gotFinal = true
			break
		}
		var ev serve.StreamEvent
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			t.Fatalf("token event: %v", err)
		}
		events = append(events, ev)
	}
	if !gotFinal {
		t.Fatalf("stream ended without a final event (read %d token events, err %v)", len(events), sc.Err())
	}
	if final.Error != "" || final.FinishReason == string(serve.FinishError) {
		t.Fatalf("stream finished with error %q", final.Error)
	}
	if len(events) == 0 {
		t.Fatal("no token events before the final event")
	}
	if err := f.checkAgainstReference(req, events, final); err != nil {
		t.Fatal(err)
	}
}

// cutReplicaTransport severs every generate response from one victim URL
// after `after` body bytes — a deterministic mid-stream hangup aimed at a
// single replica.
type cutReplicaTransport struct {
	inner  http.RoundTripper
	after  int
	victim atomicString
}

func (c *cutReplicaTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	v := c.victim.Load()
	if v != "" && req.URL.Path == "/v1/generate" && strings.HasPrefix(req.URL.String(), v) {
		resp.Body = &cutBody{inner: resp.Body, remaining: c.after}
	}
	return resp, nil
}

type cutBody struct {
	inner     io.ReadCloser
	remaining int
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= n
	return n, err
}

func (b *cutBody) Close() error { return b.inner.Close() }

type atomicString struct {
	mu sync.Mutex
	s  string
}

func (a *atomicString) Store(s string) { a.mu.Lock(); a.s = s; a.mu.Unlock() }
func (a *atomicString) Load() string   { a.mu.Lock(); defer a.mu.Unlock(); return a.s }
