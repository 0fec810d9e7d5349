package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/serve"
)

// servedRatio is the paper's deployment point: 90% of weights at 4 bits,
// the rest at 2, avg 3.8 bits. sweepRatios are the widths the researcher's
// loop visits (avg 4.0 / 3.8 / 3.5).
const servedRatio = 0.9

var sweepRatios = []float64{1.0, servedRatio, 0.75}

// bench bundles what every phase needs: the span recorder (disabled outside
// a traced run) and the fixed corpora of harness.Quick.
type bench struct {
	rec *recorder
	env *harness.Env
	cfg model.Config
}

func newBench() *bench {
	return &bench{rec: &recorder{}, env: harness.NewEnv(harness.Quick), cfg: model.Nano7B()}
}

func (b *bench) evalSegments() [][]int { return b.env.EvalSegments(b.env.C4, b.cfg) }

// artefact is one run of the paper's pipeline on the pretrained model.
type artefact struct {
	fp     *model.Model
	calib  *data.CalibrationSet
	stats  *core.Stats
	res    *core.Result
	packed *model.QuantizedModel
	// collectS and leg are the seconds each pipeline stage took; quantizeS
	// is their sum: CollectStats + QuantizeWithStats + PackedModel +
	// EnsureLUT on every layer.
	collectS  float64
	leg       legTimes
	quantizeS float64
}

// collectStats is pipeline step 1, timed.
func (b *bench) collectStats(m *model.Model, calib *data.CalibrationSet) (*core.Stats, float64, error) {
	defer b.rec.span("core.CollectStats")()
	t0 := time.Now()
	st, err := core.CollectStats(m, calib, core.CollectOptions{Probes: 4, Seed: 1})
	return st, time.Since(t0).Seconds(), err
}

// legTimes are the seconds one quantize -> pack -> LUT leg spent per stage.
type legTimes struct{ quantize, pack, lut float64 }

func (l legTimes) total() float64 { return l.quantize + l.pack + l.lut }

// quantizeLeg is pipeline steps 2-4 at one 4-bit ratio, each stage timed.
func (b *bench) quantizeLeg(m *model.Model, st *core.Stats, calib *data.CalibrationSet, ratio float64) (*core.Result, *model.QuantizedModel, legTimes, error) {
	var lt legTimes
	end := b.rec.span("core.QuantizeWithStats")
	t0 := time.Now()
	res, err := core.QuantizeWithStats(m, st, calib, core.DefaultOptions(ratio))
	lt.quantize = time.Since(t0).Seconds()
	end()
	if err != nil {
		return nil, nil, lt, err
	}
	end = b.rec.span("core.PackedModel")
	t0 = time.Now()
	qm, err := res.PackedModel()
	lt.pack = time.Since(t0).Seconds()
	end()
	if err != nil {
		return nil, nil, lt, err
	}
	end = b.rec.span("quant.EnsureLUT")
	t0 = time.Now()
	for _, l := range qm.Layers {
		l.W.EnsureLUT()
	}
	lt.lut = time.Since(t0).Seconds()
	end()
	return res, qm, lt, nil
}

// buildArtefact runs the whole pipeline from fixture bytes.
func (b *bench) buildArtefact() (*artefact, error) {
	fp, err := decodeFixture(fixtureBytes)
	if err != nil {
		return nil, err
	}
	calib := b.env.Calibration(b.cfg)
	st, collectS, err := b.collectStats(fp, calib)
	if err != nil {
		return nil, err
	}
	res, qm, lt, err := b.quantizeLeg(fp, st, calib, servedRatio)
	if err != nil {
		return nil, err
	}
	return &artefact{
		fp: fp, calib: calib, stats: st, res: res, packed: qm,
		collectS: collectS, leg: lt, quantizeS: collectS + lt.total(),
	}, nil
}

// served is the model the workload's replicas run.
func (a *artefact) served(w workload) *model.Model {
	if w.floatTwin {
		return a.res.Model
	}
	return a.packed.Model
}

// weightResidentBytes is what the served projections keep in memory.
func (a *artefact) weightResidentBytes(w workload) int64 {
	if w.floatTwin {
		return a.packed.FloatWeightBytes()
	}
	var n int64
	for _, l := range a.packed.Layers {
		n += l.W.SizeBytes() + l.W.LUTBytes()
	}
	return n
}

// Stable ring identities. The router hashes these strings onto its
// consistent-hash ring; raw httptest URLs carry a random port, which
// reshuffles the ring per process (the same plan split 920/994 in one run
// and 1450/464 in the next). The dialer maps them to the real listeners.
var replicaIDs = []string{"http://replica-0", "http://replica-1"}

// instance is a serving stack ready for traffic: one scheduler in process,
// or router -> 2 replicas over loopback HTTP.
type instance struct {
	art    *artefact
	scheds []*serve.Scheduler

	// Wire path only.
	url      string // the router's listener
	directly string // replica 0's listener, bypassing the router
	client   *http.Client

	closers []func()
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
}

// replicaSplit is how many requests each replica has been sent so far.
func (in *instance) replicaSplit() []int64 {
	split := make([]int64, len(in.scheds))
	for i, s := range in.scheds {
		split[i] = s.Stats().Submitted
	}
	return split
}

// kvHighWater is the largest KV residency any replica reached.
func (in *instance) kvHighWater() int64 {
	var hw int64
	for _, s := range in.scheds {
		if b := s.Stats().KVHighWaterBytes; b > hw {
			hw = b
		}
	}
	return hw
}

// newInstance stands the serving stack up over art. wrap, when non-nil,
// puts the traced run's middleware around the two public handlers.
func newInstance(art *artefact, w workload, wrap func(layer string, h http.Handler) http.Handler) (*instance, error) {
	in := &instance{art: art}
	opts := serve.Options{Slots: w.slots, EOS: -1, PrefillChunk: w.prefillChunk, PrefixCacheBytes: w.prefixCacheBytes}
	if !w.overHTTP {
		s := serve.New(art.served(w), opts)
		in.scheds = append(in.scheds, s)
		in.closers = append(in.closers, s.Close)
		return in, nil
	}
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	dial := map[string]string{}
	for i, id := range replicaIDs {
		srv := serve.NewServer(art.served(w), opts)
		ts := httptest.NewServer(wrap("serve.Handler", srv.Handler()))
		in.scheds = append(in.scheds, srv.Scheduler())
		in.closers = append(in.closers, srv.Close, ts.Close)
		dial[id[len("http://"):]+":80"] = ts.Listener.Addr().String()
		if i == 0 {
			in.directly = ts.URL
		}
	}
	var d net.Dialer
	upstream := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := dial[addr]
			if !ok {
				return nil, fmt.Errorf("bench: no replica behind %q", addr)
			}
			return d.DialContext(ctx, network, real)
		},
		MaxIdleConnsPerHost: 2 * w.slots,
	}
	rt, err := router.New(router.Options{Replicas: replicaIDs, Transport: upstream})
	if err != nil {
		in.close()
		return nil, err
	}
	front := httptest.NewServer(wrap("router.Handler", rt.Handler()))
	in.url = front.URL
	// The load generator's keep-alive pool: 2 loopback connections.
	pool := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	in.client = &http.Client{Transport: pool}
	in.closers = append(in.closers, rt.Close, front.Close, pool.CloseIdleConnections)
	return in, nil
}

// firstToken pushes one short request through the stack's front door; a
// set-up is not over until the stack has answered.
func (in *instance) firstToken() error {
	req := planned{ID: "setup", Prompt: []int{1, 2, 3, 4}, Out: 1, Seed: 1}
	if in.client == nil {
		ticket, err := in.scheds[0].Submit(req.request())
		if err != nil {
			return err
		}
		return ticket.Wait().Err
	}
	_, err := postGenerate(in.client, in.url, req, false, nil)
	return err
}

// setUp is one cold set-up: fixture bytes -> pipeline -> serving stack ->
// first token. It returns the instance and how long it took.
func (b *bench) setUp(w workload, wrap func(string, http.Handler) http.Handler) (*instance, float64, error) {
	defer b.rec.span("setup")()
	t0 := time.Now()
	art, err := b.buildArtefact()
	if err != nil {
		return nil, 0, err
	}
	in, err := newInstance(art, w, wrap)
	if err != nil {
		return nil, 0, err
	}
	if err := in.firstToken(); err != nil {
		in.close()
		return nil, 0, err
	}
	return in, time.Since(t0).Seconds(), nil
}

// newGenerate builds the POST /v1/generate for one planned request.
func newGenerate(base string, p planned, stream bool) (*http.Request, error) {
	body, err := json.Marshal(serve.GenerateRequest{
		ID: p.ID, Tokens: p.Prompt, MaxTokens: p.Out, Temperature: temperature, Seed: p.Seed, Stream: stream,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}
