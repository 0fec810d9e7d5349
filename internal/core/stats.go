// Package core implements APTQ — Attention-aware Post-Training
// Mixed-Precision Quantization (Guan et al., DAC 2024). It contains the
// three pieces the paper contributes on top of GPTQ:
//
//  1. attention-aware Hessian construction (eqs. 5-13): the quantization
//     objective is ||F(W) − F(Ŵ)||² with F the attention-block output, and
//     the Levenberg-Marquardt Hessian H = 2·F′(Ŵ)F′(Ŵ)ᵀ is assembled from
//     the Jacobians of F with respect to each projection (stats.go),
//  2. Hessian-trace-based layer sensitivity (sensitivity.go), and
//  3. mixed 2/4-bit precision allocation under a 4-bit-ratio budget R with
//     avg bits = 4R + 2(1−R), eq. (18) (allocate.go),
//
// glued together by the Algorithm-1 pipeline in aptq.go, with the shared
// OBQ/Cholesky update rules (eqs. 16/17) provided by internal/gptq.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// LayerStats holds the calibration statistics of one quantizable layer.
type LayerStats struct {
	Ref model.LayerRef

	// XtX accumulates Σ XᵀX of the layer's own input — the GPTQ statistic,
	// collected for every layer (it is both the MLP Hessian and the
	// baseline for ablations).
	XtX *tensor.Mat

	// AttnH is the attention-aware Hessian accumulator for W_Q, W_K
	// (probe-based Jacobians, eqs. 12/13) and W_O (analytic effective
	// input Concat(heads), eq. 9). Nil for W_V and MLP layers.
	AttnH *tensor.Mat

	// HeadH are the per-head attention-aware Hessian accumulators for W_V:
	// head h's effective input is M_h = A_h·X (eqs. 10/11), so rows of W_V
	// belonging to head h get Hessian 2·M_hᵀM_h. Nil for other roles.
	HeadH []*tensor.Mat

	// FisherDiag accumulates the diagonal empirical Fisher of the LM loss,
	// Σ_seg (∂L/∂W)², per weight. This is the loss-Hessian trace statistic
	// in the HAWQ-V2 sense (the work the paper builds its trace metric on):
	// unlike the layer-local attention-output trace, it sees how much a
	// layer's error is amplified by everything downstream, which dominates
	// true layer importance in deep stacks. It drives the default
	// mixed-precision sensitivity metric (MetricFisherDelta).
	FisherDiag *tensor.Mat
}

// Stats is the full calibration statistics set for a model.
type Stats struct {
	Layers []LayerStats
	// Tokens is the total number of calibration tokens processed.
	Tokens int
	// Probes is the number of Rademacher probes per segment used for the
	// W_Q / W_K Jacobian estimates.
	Probes int
	// finalized guards against double normalization.
	finalized bool
}

// CollectOptions controls calibration statistics collection.
type CollectOptions struct {
	// Probes per calibration segment for the Q/K Jacobian estimator
	// (default 4).
	Probes int
	// Seed drives the Rademacher probe sampling.
	Seed int64
}

// CollectStats runs the model over the calibration set and accumulates all
// Hessian statistics:
//
//   - every linear layer's input Gram XᵀX,
//   - W_O's effective-input Gram Concat(heads)ᵀConcat(heads),
//   - W_V's per-head effective-input Grams (A_h·X)ᵀ(A_h·X),
//   - W_Q/W_K probe Jacobian Grams: for Rademacher probes R over the
//     attention output F, backpropagate s = ⟨R, F⟩ through the softmax and
//     matmuls (eqs. 12/13) to get G = ∂s/∂W and accumulate GᵀG,
//   - the diagonal empirical Fisher of the LM loss.
//
// Each segment costs one forward. Everything else reads that forward's
// caches: the segment's probes are drawn first (probe-major, block-minor,
// so the seeded stream does not depend on scheduling), then the loss
// backward for the Fisher diagonal and one task per block — the block's
// layer Grams and its probes, in probe order — run as one parallel.ForEach.
// The backward writes only Param.Grad and FisherDiag, a block task only its
// own layers' accumulators and scratch, and every accumulator receives its
// terms from one goroutine in segment order, so the result is bit-identical
// at any worker count. The tensor kernels inside the tasks find the spawn
// budget taken and run inline.
//
// After the pass, accumulators are normalized to Hessians:
// H = 2·Σ(stat)/tokens, with the probe statistic additionally divided by
// (probes · d_out) so that for a *linear* layer it converges to the same
// 2·XᵀX/tokens scale as the analytic statistic (E[GᵀG] = d_out·XᵀX for
// Rademacher probes). This keeps traces comparable across layer roles,
// which the mixed-precision allocator requires.
func CollectStats(m *model.Model, calib *data.CalibrationSet, opts CollectOptions) (*Stats, error) {
	if len(calib.Segments) == 0 {
		return nil, fmt.Errorf("core: empty calibration set")
	}
	for i, seg := range calib.Segments {
		if len(seg) == 0 {
			return nil, fmt.Errorf("core: calibration segment %d is empty", i)
		}
	}
	if opts.Probes <= 0 {
		opts.Probes = 4
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	layers := m.QuantizableLayers()
	st := &Stats{Probes: opts.Probes}
	for _, ref := range layers {
		ls := LayerStats{
			Ref:        ref,
			XtX:        tensor.New(ref.Linear.In(), ref.Linear.In()),
			FisherDiag: tensor.New(ref.Linear.Out(), ref.Linear.In()),
		}
		switch ref.Role {
		case model.RoleQ, model.RoleK, model.RoleO:
			ls.AttnH = tensor.New(ref.Linear.In(), ref.Linear.In())
		case model.RoleV:
			ls.HeadH = make([]*tensor.Mat, ref.Attn.Heads)
			for h := range ls.HeadH {
				ls.HeadH[h] = tensor.New(ref.Linear.In(), ref.Linear.In())
			}
		}
		st.Layers = append(st.Layers, ls)
	}
	blocks := newBlockStats(m, st, opts.Probes)

	for _, seg := range calib.Segments {
		logits := m.Forward(seg)
		st.Tokens += len(seg)
		for b := range blocks {
			blocks[b].fit(len(seg))
		}
		for p := 0; p < opts.Probes; p++ {
			for b := range blocks {
				rademacher(rng, blocks[b].r[p])
			}
		}
		parallel.ForEach(1+len(blocks), func(i int) {
			if i == 0 {
				st.accumFisher(m, logits, seg)
			} else {
				blocks[i-1].accum()
			}
		})
	}
	m.ZeroGrad()

	for b := range blocks {
		blocks[b].copySharedGrams()
	}
	st.finalize()
	return st, nil
}

// accumFisher adds the segment's squared LM-loss gradients to every
// layer's FisherDiag, backpropagating from the logits of the forward the
// block statistics also read.
func (st *Stats) accumFisher(m *model.Model, logits *tensor.Mat, seg []int) {
	m.ZeroGrad()
	m.BackwardFromLogits(logits, data.NextTokenBatch(seg).Targets)
	for i := range st.Layers {
		ls := &st.Layers[i]
		for j, gv := range ls.Ref.Linear.P.Grad.Data {
			ls.FisherDiag.Data[j] += gv * gv
		}
	}
}

// blockStats is one block's task in CollectStats' per-segment fork: its
// slice of Stats.Layers plus the working memory its statistics reuse
// across probes and segments.
type blockStats struct {
	attn   *nn.Attention
	layers []LayerStats // aliases Stats.Layers
	q, k   *LayerStats

	r     []*tensor.Mat // this segment's probes (n x dim), drawn before the fork
	probe nn.QKProbe
	mh    *tensor.Mat // A_h·X
	gtg   *tensor.Mat // one probe's GᵀG
}

func newBlockStats(m *model.Model, st *Stats, probes int) []blockStats {
	blocks := make([]blockStats, len(m.Blocks))
	lo := 0
	for bi := range blocks {
		hi := lo
		for hi < len(st.Layers) && st.Layers[hi].Ref.Block == bi {
			hi++
		}
		b := &blocks[bi]
		b.attn = m.Blocks[bi].Attn
		b.layers = st.Layers[lo:hi]
		for i := range b.layers {
			switch b.layers[i].Ref.Role {
			case model.RoleQ:
				b.q = &b.layers[i]
			case model.RoleK:
				b.k = &b.layers[i]
			}
		}
		b.r = make([]*tensor.Mat, probes)
		b.gtg = tensor.New(b.attn.Dim, b.attn.Dim)
		lo = hi
	}
	return blocks
}

// fit sizes the per-segment scratch for a segment of n tokens.
func (b *blockStats) fit(n int) {
	if b.mh != nil && b.mh.Rows == n {
		return
	}
	b.mh = tensor.New(n, b.attn.Dim)
	for p := range b.r {
		b.r[p] = tensor.New(n, b.attn.Dim)
	}
}

// gramLayer returns the first layer of the block that read the same input
// matrix as layer i in the last forward (W_Q/W_K/W_V all read the
// attention input, SwiGLU's gate and up the MLP input). XtX is accumulated
// on that layer only and copied to the others at the end.
func (b *blockStats) gramLayer(i int) int {
	x := b.layers[i].Ref.Linear.LastInput()
	for j := 0; j < i; j++ {
		if b.layers[j].Ref.Linear.LastInput() == x {
			return j
		}
	}
	return i
}

// accum adds the current segment's terms to every statistic of the block
// except FisherDiag.
func (b *blockStats) accum() {
	for i := range b.layers {
		ls := &b.layers[i]
		// GPTQ statistic for every layer.
		if b.gramLayer(i) == i {
			tensor.AccumGram(ls.XtX, ls.Ref.Linear.LastInput())
		}
		switch ls.Ref.Role {
		case model.RoleO:
			// eq. (9): effective input of W_O is Concat(head_1..H).
			tensor.AccumGram(ls.AttnH, b.attn.LastContext())
		case model.RoleV:
			// eqs. (10)/(11): per-head effective input M_h = A_h·X.
			for h := range ls.HeadH {
				tensor.MatMulInto(b.mh, b.attn.HeadAttn(h), b.attn.LastInput())
				tensor.AccumGram(ls.HeadH[h], b.mh)
			}
		}
	}
	// eqs. (12)/(13): G = ∂⟨R,F⟩/∂W for W_Q and W_K, accumulate GᵀG.
	for _, r := range b.r {
		gq, gk := b.attn.ProbeQK(r, &b.probe)
		b.addGram(b.q.AttnH, gq)
		b.addGram(b.k.AttnH, gk)
	}
}

// addGram adds gᵀg to h. The product is formed from zero in scratch and
// added whole: accumulating its terms straight into h would associate
// every element's sum differently.
func (b *blockStats) addGram(h, g *tensor.Mat) {
	b.gtg.Zero()
	tensor.AccumGram(b.gtg, g)
	tensor.AddInPlace(h, b.gtg)
}

// copySharedGrams gives every layer that left its XtX to an earlier layer
// with the same input (see gramLayer) that layer's accumulator.
func (b *blockStats) copySharedGrams() {
	for i := range b.layers {
		if from := b.gramLayer(i); from != i {
			b.layers[i].XtX.CopyFrom(b.layers[from].XtX)
		}
	}
}

// rademacher overwrites r with iid ±1 entries.
func rademacher(rng *rand.Rand, r *tensor.Mat) {
	for i := range r.Data {
		if rng.Intn(2) == 0 {
			r.Data[i] = 1
		} else {
			r.Data[i] = -1
		}
	}
}

// finalize converts raw accumulators into Hessians with a common scale.
func (st *Stats) finalize() {
	if st.finalized {
		return
	}
	st.finalized = true
	invTok := 1 / float64(st.Tokens)
	for i := range st.Layers {
		ls := &st.Layers[i]
		ls.XtX.Scale(2 * invTok)
		switch ls.Ref.Role {
		case model.RoleQ, model.RoleK:
			// Probe estimator: E[GᵀG] = d_out·XᵀX for linear layers, so
			// divide by probes·d_out to land on the 2·XᵀX/tokens scale.
			ls.AttnH.Scale(2 * invTok / float64(st.Probes) / float64(ls.Ref.Linear.Out()))
		case model.RoleO:
			ls.AttnH.Scale(2 * invTok)
		case model.RoleV:
			for _, h := range ls.HeadH {
				h.Scale(2 * invTok)
			}
		}
	}
}

// Hessian returns the attention-aware Hessian for single-Hessian roles
// (Q, K, O) and the GPTQ Hessian 2XᵀX for MLP roles. For W_V (per-head
// Hessians) use HeadHessians; calling Hessian on a V layer returns the
// head-averaged matrix, which sensitivity scoring uses.
func (ls *LayerStats) Hessian() *tensor.Mat {
	switch {
	case ls.AttnH != nil:
		return ls.AttnH
	case ls.HeadH != nil:
		avg := tensor.New(ls.HeadH[0].Rows, ls.HeadH[0].Cols)
		for _, h := range ls.HeadH {
			tensor.AddInPlace(avg, h)
		}
		avg.Scale(1 / float64(len(ls.HeadH)))
		return avg
	default:
		return ls.XtX
	}
}

// HeadHessians returns the per-head Hessians for a V-role layer, nil
// otherwise.
func (ls *LayerStats) HeadHessians() []*tensor.Mat { return ls.HeadH }

// GPTQHessian returns the plain 2XᵀX statistic regardless of role, used by
// the GPTQ baseline and the sensitivity-metric ablation.
func (ls *LayerStats) GPTQHessian() *tensor.Mat { return ls.XtX }
