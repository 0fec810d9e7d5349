package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/model"
)

// demoModel is the deterministic nano config aptq-serve serves when no
// checkpoint is given — the model every HTTP-level test and smoke script
// runs against.
func demoModel() *model.Model {
	cfg := model.Config{Name: "serve-demo", Vocab: 64, Dim: 32, Heads: 4, Layers: 3, FF: 64, MaxSeq: 64, RopeBase: 10000}
	return model.New(cfg, 1)
}

func testHTTPServer(t *testing.T) (*Server, *httptest.Server) {
	return testHTTPServerOpts(t, func(*Options) {})
}

func testHTTPServerOpts(t *testing.T, mod func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := DefaultOptions()
	opts.Slots = 2
	mod(&opts)
	srv := NewServer(demoModel(), opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestGenerateEndToEndDeterministic is the serving determinism contract at
// the HTTP boundary: the same request body yields byte-identical replies,
// also under concurrent traffic.
func TestGenerateEndToEndDeterministic(t *testing.T) {
	_, ts := testHTTPServer(t)
	body := `{"tokens":[1,2,3],"max_tokens":8,"temperature":0.8,"seed":7}`
	code, first := post(t, ts.URL+"/v1/generate", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, first)
	}
	var reply GenerateResponse
	if err := json.Unmarshal(first, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Tokens) != 8 || reply.FinishReason != "length" || reply.Text == "" {
		t.Fatalf("unexpected reply: %s", first)
	}
	// Co-scheduled noise traffic with different seeds must not perturb the
	// repeat of the original request.
	for i := 0; i < 3; i++ {
		if code, b := post(t, ts.URL+"/v1/generate", `{"tokens":[5],"max_tokens":4,"temperature":1.0,"seed":99}`); code != http.StatusOK {
			t.Fatalf("noise status %d: %s", code, b)
		}
	}
	if _, again := post(t, ts.URL+"/v1/generate", body); !bytes.Equal(first, again) {
		t.Fatalf("same request, different replies:\n%s\n%s", first, again)
	}
}

// TestGenerateTextPrompt exercises the word-level prompt path and the
// stop-token plumbing.
func TestGenerateTextPrompt(t *testing.T) {
	srv, ts := testHTTPServer(t)
	prompt := srv.vocab.Word(3) + " " + srv.vocab.Word(9)
	body, _ := json.Marshal(map[string]any{"prompt": prompt, "max_tokens": 5, "seed": 1})
	code, b := post(t, ts.URL+"/v1/generate", string(body))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var reply GenerateResponse
	if err := json.Unmarshal(b, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Tokens) != 5 {
		t.Fatalf("generated %d tokens: %s", len(reply.Tokens), b)
	}
	// Repeating the request with the first generated token as a stop token
	// must end generation immediately.
	body, _ = json.Marshal(map[string]any{"prompt": prompt, "max_tokens": 5, "seed": 1, "stop": []int{reply.Tokens[0]}})
	code, b = post(t, ts.URL+"/v1/generate", string(body))
	if code != http.StatusOK {
		t.Fatalf("stop status %d: %s", code, b)
	}
	if err := json.Unmarshal(b, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.FinishReason != "stop" || len(reply.Tokens) != 0 {
		t.Fatalf("stop run: %s", b)
	}
}

func TestGenerateRejectsBadRequests(t *testing.T) {
	_, ts := testHTTPServer(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"bad json", `{"tokens":`},
		{"both prompt and tokens", `{"prompt":"a","tokens":[1]}`},
		{"unknown word", `{"prompt":"notaword!"}`},
		{"token out of vocab", `{"tokens":[99999]}`},
		{"stop out of vocab", `{"tokens":[1],"stop":[-2]}`},
	} {
		if code, b := post(t, ts.URL+"/v1/generate", tc.body); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, code, b)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET generate: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts := testHTTPServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["model"] != "serve-demo" {
		t.Fatalf("health: %v", health)
	}
	if code, b := post(t, ts.URL+"/v1/generate", `{"tokens":[1],"max_tokens":3,"seed":2}`); code != http.StatusOK {
		t.Fatalf("generate status %d: %s", code, b)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats["completed"] < 1 || stats["generated_tokens"] < 3 || stats["slots"] != 2 {
		t.Fatalf("stats: %v", stats)
	}
	// The prefill-latency surface: one completed request means one TTFT
	// sample and non-negative percentiles.
	if stats["ttft_count"] < 1 || stats["ttft_p50_ms"] <= 0 || stats["ttft_p99_ms"] < stats["ttft_p50_ms"] {
		t.Fatalf("ttft stats: %v", stats)
	}
	if stats["prefill_chunk"] <= 0 {
		t.Fatalf("prefill_chunk missing: %v", stats)
	}
	if v, ok := stats["drain_timeouts"]; !ok || v != 0 {
		t.Fatalf("drain_timeouts = %v, want present and 0: %v", v, stats)
	}
	// Batch size per step: a 1-token prompt and 3 outputs are one prefill
	// tick, two ticks that each feed a token back as a decode row, and the
	// tick that emits the last token.
	if stats["ticks"] != 4 || stats["decode_rows"] != 2 {
		t.Fatalf("ticks = %v, decode_rows = %v, want 4 and 2", stats["ticks"], stats["decode_rows"])
	}
}

// TestGenerateStreaming: the SSE variant emits one event per token and a
// final event byte-identical to the non-streaming reply body — streaming
// is a transport change, never a semantic one.
func TestGenerateStreaming(t *testing.T) {
	_, ts := testHTTPServer(t)
	body := `{"tokens":[1,2,3],"max_tokens":8,"temperature":0.8,"seed":7}`
	code, plain := post(t, ts.URL+"/v1/generate", body)
	if code != http.StatusOK {
		t.Fatalf("plain status %d: %s", code, plain)
	}
	plain = bytes.TrimRight(plain, "\n") // Encoder appends a newline SSE events lack

	resp, err := http.Post(ts.URL+"/v1/generate?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			events = append(events, data)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 9 { // 8 token events + the final response event
		t.Fatalf("got %d events, want 9: %v", len(events), events)
	}
	final := events[len(events)-1]
	if final != string(plain) {
		t.Fatalf("final stream event differs from the plain reply:\n%s\n%s", final, plain)
	}
	var reply GenerateResponse
	if err := json.Unmarshal([]byte(final), &reply); err != nil {
		t.Fatal(err)
	}
	for i, ev := range events[:len(events)-1] {
		var tokEv StreamEvent
		if err := json.Unmarshal([]byte(ev), &tokEv); err != nil {
			t.Fatalf("event %d: %v (%s)", i, err, ev)
		}
		if tokEv.Index != i || tokEv.Token != reply.Tokens[i] {
			t.Fatalf("event %d = %+v, want token %d", i, tokEv, reply.Tokens[i])
		}
	}
	// The "stream":true body form is equivalent to ?stream=1.
	resp2, err := http.Post(ts.URL+"/v1/generate", "application/json",
		strings.NewReader(`{"tokens":[1,2,3],"max_tokens":8,"temperature":0.8,"seed":7,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("body-form stream content type %q", ct)
	}
	b, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(b), final) {
		t.Fatalf("body-form stream missing the final event:\n%s", b)
	}
}

// TestLatencyAndAdmissionStats: the /v1/stats latency surface carries the
// inter-token percentiles and admission-control counters.
func TestLatencyAndAdmissionStats(t *testing.T) {
	_, ts := testHTTPServerOpts(t, func(o *Options) { o.MaxQueue = 7 })
	if code, b := post(t, ts.URL+"/v1/generate", `{"tokens":[1],"max_tokens":6,"seed":2}`); code != http.StatusOK {
		t.Fatalf("generate status %d: %s", code, b)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// 6 generated tokens -> 6 inter-token samples (the first measures from
	// prefill completion), positive percentiles, ordered p50 <= p99.
	if stats["itl_count"] < 1 || stats["itl_p50_ms"] <= 0 || stats["itl_p99_ms"] < stats["itl_p50_ms"] {
		t.Fatalf("itl stats: %v", stats)
	}
	if stats["max_queue"] != 7 || stats["draining"] != 0 {
		t.Fatalf("admission stats: %v", stats)
	}
	for _, k := range []string{"cancelled", "deadline_exceeded", "rejected"} {
		if v, ok := stats[k]; !ok || v != 0 {
			t.Fatalf("counter %s = %v, want present and 0: %v", k, v, stats)
		}
	}
}

// TestHealthDraining: a draining server reports 503 on /healthz so load
// balancers stop routing to it during a graceful redeploy.
func TestHealthDraining(t *testing.T) {
	srv, ts := testHTTPServer(t)
	srv.SetDraining(true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "draining" {
		t.Fatalf("draining healthz: %v", health)
	}
}

// TestPrefixCacheEndToEnd: with -prefix-cache enabled, a repeated prompt
// prefix yields byte-identical replies (the bit-identity contract across
// cold and cached prefills) and the stats surface reports the hits.
func TestPrefixCacheEndToEnd(t *testing.T) {
	_, ts := testHTTPServerOpts(t, func(o *Options) {
		o.PrefillChunk = 4
		o.PrefixCacheBytes = 1 << 20
	})
	// A 17-token prompt spans one full 16-row KV page plus a tail token,
	// so the repeat adopts the cached page and still prefills the tail.
	body := `{"tokens":[1,2,3,4,5,6,7,8,9,1,2,3,4,5,6,7,8],"max_tokens":6,"temperature":0.7,"seed":11}`
	code, first := post(t, ts.URL+"/v1/generate", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, first)
	}
	_, again := post(t, ts.URL+"/v1/generate", body)
	if !bytes.Equal(first, again) {
		t.Fatalf("cached prefill changed the reply:\n%s\n%s", first, again)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats["prefix_cache_hits"] < 1 || stats["prefix_cache_hit_tokens"] < 16 {
		t.Fatalf("prefix cache saw no hits: %v", stats)
	}
	if stats["prefix_cache_bytes"] <= 0 || stats["prefix_cache_entries"] <= 0 {
		t.Fatalf("prefix cache reports no residency: %v", stats)
	}
	if hr := stats["prefix_cache_hit_rate"]; hr <= 0 || hr > 1 {
		t.Fatalf("prefix_cache_hit_rate = %v", hr)
	}
	if stats["kv_unique_bytes"] <= 0 || stats["kv_pages"] <= 0 {
		t.Fatalf("paged KV reports no unique residency: %v", stats)
	}
	if stats["kv_logical_bytes"] < stats["kv_unique_bytes"] {
		t.Fatalf("logical KV bytes %v below unique %v", stats["kv_logical_bytes"], stats["kv_unique_bytes"])
	}
	if stats["kv_sharing_ratio"] <= 1 {
		t.Fatalf("cached slot + attached page show no sharing: ratio %v", stats["kv_sharing_ratio"])
	}
}
