package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// obs is what a client saw of one request.
type obs struct {
	err       error // nil: completed with a normal finish reason
	tokens    []int
	ttftMs    float64 // sent (open loop: due) -> first token
	latencyMs float64 // sent (open loop: due) -> last token
	tpotMs    float64 // (t_last - t_first) / (tokens - 1)
	lateMs    float64 // open loop: how long after it was due the generator sent it
}

// roundObs is one round of traffic.
type roundObs struct {
	plan  []planned
	reqs  []obs
	gaps  [][]float64 // per request: individual inter-token gaps, ms
	wallS float64
	cpuS  float64
}

// tokenClock timestamps a request's tokens as the client receives them and
// turns them into the request's latency observations. start is when the
// request was sent (open loop: due).
type tokenClock struct {
	start, first, last time.Time
	n                  int
	gaps               []float64
}

func (c *tokenClock) tick() {
	now := time.Now()
	if c.n == 0 {
		c.first = now
	} else {
		c.gaps = append(c.gaps, ms(now.Sub(c.last)))
	}
	c.last = now
	c.n++
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (c *tokenClock) into(o *obs) {
	o.ttftMs = ms(c.first.Sub(c.start))
	o.latencyMs = ms(c.last.Sub(c.start))
	if c.n > 1 {
		o.tpotMs = ms(c.last.Sub(c.first)) / float64(c.n-1)
	}
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// driveRound runs one round of w's traffic against in and reports what the
// clients saw. The garbage collector runs first, outside the timers, so a
// round does not inherit the previous round's debt.
func (b *bench) driveRound(in *instance, w workload, plan []planned) roundObs {
	ro := roundObs{plan: plan, reqs: make([]obs, len(plan)), gaps: make([][]float64, len(plan))}
	one := func(i int, start time.Time) {
		if w.overHTTP {
			ro.reqs[i], ro.gaps[i] = b.overWire(in, plan[i], start)
		} else {
			ro.reqs[i], ro.gaps[i] = b.inProcess(in.scheds[0], plan[i], start)
		}
	}
	runtime.GC()
	cpu0, t0 := cpuSeconds(), time.Now()
	var wg sync.WaitGroup
	switch {
	case w.rateRPS > 0:
		// Open loop: one generator sends on schedule whether or not earlier
		// requests have finished; each request is timed from its due time,
		// so a stall is charged to every request it delays.
		for i := range plan {
			due := t0.Add(time.Duration(plan[i].DueMs * float64(time.Millisecond)))
			time.Sleep(time.Until(due))
			late := ms(time.Since(due))
			wg.Add(1)
			go func() {
				defer wg.Done()
				one(i, due)
				ro.reqs[i].lateMs = late
			}()
		}
	default:
		// Closed loop: each client sends its next request when the previous
		// one completes. clients == 0 is an offline batch: every request is
		// submitted up front.
		clients := w.clients
		if clients == 0 {
			clients = len(plan)
		}
		var next atomic.Int64
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(plan); i = int(next.Add(1)) - 1 {
					one(i, time.Now())
				}
			}()
		}
	}
	wg.Wait()
	ro.wallS, ro.cpuS = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	return ro
}

// inProcess submits one request to a scheduler and reads its token stream.
func (b *bench) inProcess(s *serve.Scheduler, p planned, start time.Time) (obs, []float64) {
	clk := tokenClock{start: start, gaps: make([]float64, 0, p.Out)}
	ticket, err := s.Submit(p.request())
	if err != nil {
		return obs{err: err}, nil
	}
	submitted := time.Now()
	for range ticket.Tokens() {
		clk.tick()
	}
	res := ticket.Wait()
	o := obs{tokens: res.Tokens}
	switch {
	case res.Err != nil:
		o.err = res.Err
	case res.FinishReason != serve.FinishLength:
		o.err = fmt.Errorf("finish reason %q, want %q", res.FinishReason, serve.FinishLength)
	case clk.n != len(res.Tokens):
		o.err = fmt.Errorf("streamed %d tokens, result holds %d", clk.n, len(res.Tokens))
	default:
		clk.into(&o)
		root := b.rec.add("request", p.ID, -1, start, clk.last)
		b.rec.add("submit", p.ID, root, start, submitted)
		b.rec.add("first-token", p.ID, root, submitted, clk.first)
		b.rec.add("stream", p.ID, root, clk.first, clk.last)
	}
	return o, clk.gaps
}

// overWire posts one streaming request to the router and reads its SSE.
func (b *bench) overWire(in *instance, p planned, start time.Time) (obs, []float64) {
	clk := tokenClock{start: start, gaps: make([]float64, 0, p.Out)}
	sent := time.Now()
	tokens, err := postGenerate(in.client, in.url, p, true, clk.tick)
	if err != nil {
		return obs{err: err}, nil
	}
	o := obs{tokens: tokens}
	if clk.n != len(tokens) {
		o.err = fmt.Errorf("streamed %d tokens, final event holds %d", clk.n, len(tokens))
		return o, nil
	}
	clk.into(&o)
	root := b.rec.add("loadgen.request", p.ID, -1, start, clk.last)
	b.rec.add("loadgen.wait", p.ID, root, start, sent)
	return o, clk.gaps
}

// postGenerate sends p to base's /v1/generate and returns the reply's
// tokens. With stream set it reads the SSE form and calls onToken as each
// token event arrives.
func postGenerate(client *http.Client, base string, p planned, stream bool, onToken func()) ([]int, error) {
	req, err := newGenerate(base, p, stream)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var final serve.GenerateResponse
	if !stream {
		if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
			return nil, fmt.Errorf("reply: %w", err)
		}
	} else {
		done := false
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			payload, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
			if !ok {
				continue
			}
			// Token events carry "index"; only the final event carries
			// "finish_reason".
			if !bytes.Contains(payload, []byte(`"finish_reason"`)) {
				onToken()
				continue
			}
			if err := json.Unmarshal(payload, &final); err != nil {
				return nil, fmt.Errorf("final event: %w", err)
			}
			done = true
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		if !done {
			return nil, io.ErrUnexpectedEOF
		}
	}
	if final.Error != "" || final.FinishReason != string(serve.FinishLength) {
		return final.Tokens, fmt.Errorf("finish reason %q (%s), want %q", final.FinishReason, final.Error, serve.FinishLength)
	}
	return final.Tokens, nil
}
