package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gptq"
	"repro/internal/infer"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/prefixkey"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The ladder times every layer from outside, through its public functions,
// serially (one worker, one sequence unless a rung says otherwise) and on
// one fixed shape, so adjacent rungs differ by exactly one layer and
// subtract cleanly: kernel -> Step -> scheduler tick -> HTTP -> router.
// Each rung is a fixed number of calls repeated a few times; the rung
// reports the median repeat.

// timed returns the median over reps of the nanoseconds one call of fn
// took, each rep timing iters back-to-back calls after an untimed before.
func timed(reps, iters int, before, fn func()) float64 {
	ns := make([]float64, reps)
	for r := range ns {
		if before != nil {
			before()
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		ns[r] = float64(time.Since(t0)) / float64(iters)
	}
	return median(ns)
}

// The ladder's fixed projection shape: nano-7B's FF up-projection.
const (
	ladderOut, ladderIn = 128, 48
	ladderT             = 16 // rows of a prefill chunk
)

// ladderPlan is n requests of the ladder's fixed shape.
func ladderPlan(n, promptLen, outLen int) []planned {
	rng := rand.New(rand.NewSource(3))
	plan := make([]planned, n)
	for i := range plan {
		prompt := make([]int, promptLen)
		for j := range prompt {
			prompt[j] = rng.Intn(128)
		}
		plan[i] = planned{ID: fmt.Sprintf("ladder-%d", i), Prompt: prompt, Out: outLen, Seed: int64(i)}
	}
	return plan
}

// ladder measures every workload-independent per-layer metric into v.
func (b *bench) ladder(art *artefact, v map[string]float64, log io.Writer) error {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(1)
	rng := rand.New(rand.NewSource(1))

	// tensor: the float kernels.
	w := tensor.Randn(rng, ladderOut, ladderIn, 1)
	x1, xT := tensor.Randn(rng, 1, ladderIn, 1), tensor.Randn(rng, ladderT, ladderIn, 1)
	y1, yT := tensor.New(1, ladderOut), tensor.New(ladderT, ladderOut)
	weights := float64(ladderOut * ladderIn)
	v["tensor.matvec_ns_per_weight"] = timed(5, 4000, nil, func() { tensor.MatMulNTInto(y1, x1, w) }) / weights
	v["tensor.matmul_ns_per_mac"] = timed(5, 400, nil, func() { tensor.MatMulNTInto(yT, xT, w) }) / (weights * ladderT)
	acts := tensor.Randn(rng, 256, ladderOut, 1)
	gram := tensor.New(ladderOut, ladderOut)
	v["tensor.gram_ns_per_mac"] = timed(5, 10, nil, func() { tensor.AccumGram(gram, acts) }) / float64(256*ladderOut*ladderOut)

	// linalg, gptq: one layer's share of the quantizer.
	hess := tensor.Gram(acts)
	var err error
	v["linalg.damped_inverse_us"] = timed(5, 5, nil, func() {
		if _, e := linalg.DampedInverseUpper(hess, 0.01); e != nil {
			err = e
		}
	}) / 1e3
	wq := tensor.Randn(rng, ladderIn, ladderOut, 1)
	gcfg := gptq.DefaultConfig(4)
	gcfg.GroupSize, gcfg.BlockSize = 16, 16
	v["gptq.quantize_layer_ms"] = timed(5, 3, nil, func() {
		if _, e := gptq.Quantize(wq, hess, gcfg); e != nil {
			err = e
		}
	}) / 1e6
	if err != nil {
		return err
	}

	// core: allocation alone (the other stages are timed by the set-ups).
	opts := core.DefaultOptions(servedRatio)
	v["core.allocate_ms"] = timed(5, 3, nil, func() {
		sens := art.stats.Sensitivities(opts.Metric, opts.LowBits, opts.GroupSize, opts.Seed)
		if _, e := core.Allocate(sens, opts.Ratio, opts.HighBits, opts.LowBits); e != nil {
			err = e
		}
	}) / 1e6
	if err != nil {
		return err
	}
	v["core.avg_bits"] = art.res.AvgBits
	var compressed countingWriter
	if err := art.res.WriteCompressed(&compressed); err != nil {
		return err
	}
	v["core.compressed_bytes"] = float64(compressed)

	// quant: the packed kernels on the same shape.
	q4, q2 := quant.RTN(w, 4, 16, false), quant.RTN(w, 2, 16, false)
	pm4, err := quant.PackMatrix(q4)
	if err != nil {
		return err
	}
	pm2, err := quant.PackMatrix(q2)
	if err != nil {
		return err
	}
	pm4.EnsureLUT()
	pm2.EnsureLUT()
	v["quant.matvec4_ns_per_weight"] = timed(5, 2000, nil, func() { pm4.MatMulNTInto(y1, x1) }) / weights
	v["quant.matvec2_ns_per_weight"] = timed(5, 2000, nil, func() { pm2.MatMulNTInto(y1, x1) }) / weights
	v["quant.matmul4_ns_per_weight_row"] = timed(5, 400, nil, func() { pm4.MatMulNTInto(yT, xT) }) / (weights * ladderT)
	v["quant.pack_ms"] = timed(5, 200, nil, func() {
		if _, e := quant.PackMatrix(q4); e != nil {
			err = e
		}
	}) / 1e6
	if err != nil {
		return err
	}
	v["quant.bytes_per_weight"] = float64(art.weightResidentBytes(workload{})) / float64(art.fp.QuantizableWeightCount())

	// eval, model: the quality side. The perplexities pin the paper's
	// table: FP and APTQ at avg 4.0 / 3.5 bits (3.8 is ppl_c4 itself).
	segs := b.evalSegments()
	tokens := 0
	for _, s := range segs {
		tokens += len(s)
	}
	t0 := time.Now()
	v["eval.ppl_c4_fp"] = eval.PerplexityOnSegments(art.fp, segs)
	v["eval.ppl_tok_per_s"] = float64(tokens) / time.Since(t0).Seconds()
	for _, level := range []struct {
		name  string
		ratio float64
	}{{"eval.ppl_c4_4p0", 1.0}, {"eval.ppl_c4_3p5", 0.75}} {
		_, qm, _, err := b.quantizeLeg(art.fp, art.stats, art.calib, level.ratio)
		if err != nil {
			return err
		}
		v[level.name] = eval.PerplexityOnSegments(qm.Model, segs)
	}
	v["eval.zeroshot_acc_3p8"] = eval.EvaluateSuite(art.packed.Model, b.env.ZeroShotSuite(b.cfg)).Mean()
	v["model.forward_us_per_tok"] = timed(5, 5, nil, func() { art.fp.Forward(segs[0]) }) / 1e3 / float64(len(segs[0]))

	// infer: one sequence, float and packed.
	const stepPrompt, steps, appendLen = 4, 56, 48
	prompt := ladderPlan(1, appendLen, 0)[0].Prompt
	for _, side := range []struct {
		name  string
		sess  *infer.Session
		alloc bool
	}{{"packed", infer.NewSession(art.packed.Model.View()), true}, {"float", infer.NewSession(art.res.Model.View()), false}} {
		sess := side.sess
		warm := func() {
			sess.Reset()
			if _, e := sess.Append(prompt[:stepPrompt]); e != nil {
				err = e
			}
		}
		tok := 0
		step := func() {
			if _, e := sess.Step(prompt[tok%len(prompt)]); e != nil {
				err = e
			}
			tok++
		}
		v["infer.step_"+side.name+"_us"] = timed(5, steps, warm, step) / 1e3
		if side.alloc {
			warm()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < steps; i++ {
				step()
			}
			runtime.ReadMemStats(&m1)
			v["infer.step_allocs"] = float64(m1.Mallocs-m0.Mallocs) / steps
		}
		v["infer.append_"+side.name+"_us_per_tok"] = timed(9, 1, sess.Reset, func() {
			if _, e := sess.PrefillChunked(prompt, ladderT); e != nil {
				err = e
			}
		}) / 1e3 / appendLen
		if err != nil {
			return err
		}
	}
	pool := infer.NewPagePool(b.cfg.Dim, b.cfg.MaxSeq)
	donor := infer.NewSessionPooled(art.res.Model.View(), pool, 0)
	const spanLen = 2 * infer.PageRows
	if _, err := donor.Append(prompt[:spanLen]); err != nil {
		return err
	}
	v["infer.kv_bytes_per_tok"] = float64(donor.KVCacheBytes()) / spanLen
	pages := donor.SharePages(0, spanLen)
	adopter := infer.NewSessionPooled(art.res.Model.View(), pool, 0)
	v["infer.adopt_pages_us"] = timed(5, 1000, nil, func() {
		adopter.Reset()
		if e := adopter.AdoptPages(pages); e != nil {
			err = e
		}
	}) / 1e3
	adopter.Reset()
	pages.Release()
	if err != nil {
		return err
	}

	// serve (scheduler): the same decode through Submit at B live slots.
	// Total work is the same at every B, so tok/s compare directly.
	for _, slots := range []int{1, 4, 8} {
		sw := workload{slots: slots, clients: slots, prefillChunk: ladderT}
		in, err := newInstance(art, sw, nil)
		if err != nil {
			return err
		}
		plan := ladderPlan(16, stepPrompt, steps)
		b.driveRound(in, sw, plan) // warm the slots
		var tps []float64
		for r := 0; r < 3; r++ {
			ro := b.driveRound(in, sw, plan)
			if err := firstError(ro); err != nil {
				in.close()
				return err
			}
			tps = append(tps, float64(len(plan)*steps)/ro.wallS)
		}
		in.close()
		v[fmt.Sprintf("serve.sched_tok_per_s_b%d", slots)] = median(tps)
	}
	v["serve.batch_scaling_b8"] = v["serve.sched_tok_per_s_b8"] / v["serve.sched_tok_per_s_b1"]
	v["serve.tick_overhead_us_per_tok"] = 1e6/v["serve.sched_tok_per_s_b1"] - v["infer.step_packed_us"]

	// serve (HTTP): the handler against Submit on the same idle replica,
	// with no socket in the way. Per-request overhead is taken on 1-token
	// replies, where it is a tenth of the request and not a hundredth;
	// per-token streaming overhead on httpOut-token replies.
	const httpOut = 8
	short, long := ladderPlan(100, stepPrompt, 1), ladderPlan(100, stepPrompt, httpOut)
	srv := serve.NewServer(art.packed.Model, serve.Options{Slots: 1, EOS: -1, PrefillChunk: ladderT})
	handler := srv.Handler()
	viaSubmit := func() {
		for _, p := range short {
			ticket, e := srv.Scheduler().Submit(p.request())
			if e != nil {
				err = e
				return
			}
			if res := ticket.Wait(); res.Err != nil {
				err = res.Err
			}
		}
	}
	viaHandler := func(plan []planned, stream bool) func() {
		return func() {
			for _, p := range plan {
				req, e := newGenerate("http://replica", p, stream)
				if e != nil {
					err = e
					return
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					err = fmt.Errorf("handler: status %d", rec.Code)
				}
			}
		}
	}
	viaSubmit()
	n := float64(len(short))
	perReq := (timed(5, 1, nil, viaHandler(short, false)) - timed(5, 1, nil, viaSubmit)) / n
	perTok := (timed(3, 1, nil, viaHandler(long, true)) - timed(3, 1, nil, viaHandler(long, false))) / (n * httpOut)
	srv.Close()
	if err != nil {
		return err
	}
	v["http.generate_overhead_us_per_req"] = perReq / 1e3
	v["http.sse_overhead_us_per_tok"] = perTok / 1e3

	// router: the same short buffered requests over loopback, to a replica
	// directly and through the router.
	wire, err := findWorkload("shared-prefix-http-float")
	if err != nil {
		return err
	}
	in, err := newInstance(art, wire, nil)
	if err != nil {
		return err
	}
	defer in.close()
	over := func(base string) func() {
		return func() {
			for _, p := range short {
				if _, e := postGenerate(in.client, base, p, false, nil); e != nil {
					err = e
				}
			}
		}
	}
	over(in.url)()
	over(in.directly)()
	hop := (timed(5, 1, nil, over(in.url)) - timed(5, 1, nil, over(in.directly))) / n
	if err != nil {
		return err
	}
	v["router.hop_us_per_req"] = hop / 1e3
	hashed := prompt[:40]
	var sink uint64
	v["prefixkey.hash_ns_per_tok"] = timed(5, 100000, nil, func() { sink += prefixkey.Hash(hashed) }) / float64(len(hashed))
	_ = sink

	// parallel: what a fork-join costs, and what two workers buy on a
	// matmul big enough to split.
	big, bigX := tensor.Randn(rng, 256, ladderOut, 1), tensor.Randn(rng, 256, ladderOut, 1)
	bigY := tensor.New(256, 256)
	serial := timed(5, 10, nil, func() { tensor.MatMulNTInto(bigY, bigX, big) })
	parallel.SetWorkers(2)
	v["parallel.foreach_overhead_us"] = timed(5, 2000, nil, func() { parallel.ForEach(8, func(int) {}) }) / 1e3
	v["parallel.matmul_speedup_w2"] = serial / timed(5, 10, nil, func() { tensor.MatMulNTInto(bigY, bigX, big) })

	// Where a token's time goes: each rung minus the one below it.
	step, sched := v["infer.step_packed_us"], 1e6/v["serve.sched_tok_per_s_b1"]
	var kernel float64
	for _, l := range art.packed.Layers {
		kernel += float64(l.In()*l.Out()) * v["quant.matvec4_ns_per_weight"] / 1e3
	}
	handlerTok := sched + v["http.generate_overhead_us_per_req"]/httpOut + v["http.sse_overhead_us_per_tok"]
	fmt.Fprintf(log, "\nwhere a token's time goes (packed, B = 1, us per generated token; %d-token replies over HTTP)\n", httpOut)
	fmt.Fprintf(log, "  %-34s %9.1f\n", "packed matvec kernels (computed)", kernel)
	fmt.Fprintf(log, "  %-34s %9.1f  (+%.1f)\n", "infer.Session.Step", step, step-kernel)
	fmt.Fprintf(log, "  %-34s %9.1f  (+%.1f)\n", "serve.Scheduler tick", sched, sched-step)
	fmt.Fprintf(log, "  %-34s %9.1f  (+%.1f)\n", "serve.Server.Handler, SSE", handlerTok, handlerTok-sched)
	fmt.Fprintf(log, "  %-34s %9.1f  (+%.1f, loopback)\n", "router.Router.Handler", handlerTok+v["router.hop_us_per_req"]/httpOut, v["router.hop_us_per_req"]/httpOut)
	return nil
}

// firstError returns the first failed request of a round.
func firstError(ro roundObs) error {
	for i, o := range ro.reqs {
		if o.err != nil {
			return fmt.Errorf("request %s: %w", ro.plan[i].ID, o.err)
		}
	}
	return nil
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
