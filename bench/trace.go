package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of
// the span that caused it (-1 for a root); spans of one request share Req.
type span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
	Req     string  `json:"req,omitempty"`
}

// recorder keeps spans in memory until the run ends. While off (always,
// outside a traced run's traced rounds) every method is a cheap no-op, so
// the same driver code serves both kinds of run.
type recorder struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	stack []int // open serial spans (main goroutine only)
}

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.t0)) / 1e3 }

// add records a finished span and returns its index (-1 while off).
func (r *recorder) add(name, req string, parent int, start, end time.Time) int {
	if !r.on.Load() {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, StartUs: r.us(start), EndUs: r.us(end), Parent: parent, Req: req})
	return len(r.spans) - 1
}

// span opens a serial span under the innermost open one and returns the
// function that closes it. Serial spans nest by call order, so they may only
// be opened from the main goroutine.
func (r *recorder) span(name string) func() {
	if !r.on.Load() {
		return func() {}
	}
	r.mu.Lock()
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, span{Name: name, StartUs: r.us(time.Now()), Parent: parent})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.spans[id].EndUs = r.us(time.Now())
		r.stack = r.stack[:len(r.stack)-1]
		r.mu.Unlock()
	}
}

// handlerParents says which span causes a handler span of the same request.
var handlerParents = map[string]string{
	"router.Handler": "loadgen.request",
	"serve.Handler":  "router.Handler",
}

// middleware records a span around a public handler, joined to the rest of
// its request by the id field of the generate body (the router builds new
// upstream requests, so a header would not survive the hop).
func (r *recorder) middleware(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || req.URL.Path != "/v1/generate" {
			h.ServeHTTP(w, req)
			return
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		var probe struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(body, &probe) // a body the handler will reject has no id; the span stays unjoined
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(layer, probe.ID, -1, start, time.Now())
	})
}

// link resolves the parents of handler spans, which finish before the
// client-side root of their request is recorded.
func (r *recorder) link() {
	byNameReq := map[[2]string]int{}
	for i, s := range r.spans {
		if s.Req != "" {
			byNameReq[[2]string{s.Name, s.Req}] = i
		}
	}
	for i, s := range r.spans {
		if parent, ok := handlerParents[s.Name]; ok && s.Parent < 0 {
			if p, ok := byNameReq[[2]string{parent, s.Req}]; ok {
				r.spans[i].Parent = p
			}
		}
	}
}

// selfTimes returns, per span name, the total self time in microseconds
// (duration minus the part its children cover) and the span count.
func (r *recorder) selfTimes() (self map[string]float64, count map[string]int) {
	covered := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndUs - s.StartUs
		}
	}
	self, count = map[string]float64{}, map[string]int{}
	for i, s := range r.spans {
		d := s.EndUs - s.StartUs - covered[i]
		if d < 0 {
			d = 0 // children of one request overlap when they stream concurrently
		}
		self[s.Name] += d
		count[s.Name]++
	}
	return self, count
}

// write links the spans, writes them to bench/out/trace-<workload>.json and
// prints the self-time table.
func (r *recorder) write(workload string, log io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.link()
	dir := filepath.Join("bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	self, count := r.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "\n%d spans -> %s\n%-28s %8s %14s %12s\n", len(r.spans), path, "span", "count", "self ms", "self us/span")
	for _, n := range names {
		fmt.Fprintf(log, "%-28s %8d %14.3f %12.1f\n", n, count[n], self[n]/1e3, self[n]/float64(count[n]))
	}
	return nil
}
