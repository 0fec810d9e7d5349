package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Attention is causal multi-head self-attention with rotary position
// embeddings — the F(W, X) = MultiHead(Q, K, V) of eq. (8). Beyond Forward
// and Backward it exposes the intermediate quantities APTQ's Hessian
// construction needs:
//
//   - LastInput: the block input X (GPTQ statistic for W_Q / W_K and the
//     probe path),
//   - HeadAttn(h): the softmax matrix A_h, whose product with X forms the
//     effective input M_h = A_h·X of eq. (11) for quantizing W_V,
//   - LastContext: Concat(head_1..H), the effective input of eq. (9) for
//     quantizing W_O.
type Attention struct {
	Dim, Heads, HeadDim int

	// The projection slots hold *Linear on trainable models and
	// *QuantizedLinear after a QuantizedModel swap-in (packed low-bit
	// execution); quantization pipelines assert the float form via
	// nn.AsLinear.
	WQ, WK, WV, WO Projection
	// Rope is nil for architectures using learned positional embeddings
	// (GPT/OPT); attention is then position-agnostic.
	Rope *RoPE

	// Forward caches.
	x, q, k, v *tensor.Mat
	attn       []*tensor.Mat // per-head softmax matrices, n x n causal
	ctx        *tensor.Mat   // concat of head outputs, input to WO
}

// NewAttention constructs an attention block with square projections
// (dim x dim) split across heads.
func NewAttention(rng *rand.Rand, name string, dim, heads, maxSeq int, ropeBase float64) *Attention {
	if dim%heads != 0 {
		panic("nn: dim must be divisible by heads")
	}
	hd := dim / heads
	return &Attention{
		Dim: dim, Heads: heads, HeadDim: hd,
		WQ:   NewLinear(rng, name+".wq", dim, dim, false),
		WK:   NewLinear(rng, name+".wk", dim, dim, false),
		WV:   NewLinear(rng, name+".wv", dim, dim, false),
		WO:   NewLinear(rng, name+".wo", dim, dim, false),
		Rope: NewRoPE(hd, maxSeq, ropeBase),
	}
}

// NewAttentionGPT constructs a GPT/OPT-style attention block: biased
// projections and no rotary embedding.
func NewAttentionGPT(rng *rand.Rand, name string, dim, heads int) *Attention {
	if dim%heads != 0 {
		panic("nn: dim must be divisible by heads")
	}
	return &Attention{
		Dim: dim, Heads: heads, HeadDim: dim / heads,
		WQ: NewLinear(rng, name+".wq", dim, dim, true),
		WK: NewLinear(rng, name+".wk", dim, dim, true),
		WV: NewLinear(rng, name+".wv", dim, dim, true),
		WO: NewLinear(rng, name+".wo", dim, dim, true),
	}
}

// Forward runs causal self-attention over x (n x dim).
func (a *Attention) Forward(x *tensor.Mat) *tensor.Mat {
	n := x.Rows
	a.x = x
	a.q = a.WQ.Forward(x)
	a.k = a.WK.Forward(x)
	a.v = a.WV.Forward(x)
	if a.Rope != nil {
		a.Rope.Apply(a.q)
		a.Rope.Apply(a.k)
	}

	a.ctx = tensor.New(n, a.Dim)
	a.attn = make([]*tensor.Mat, a.Heads)
	invSqrt := 1 / math.Sqrt(float64(a.HeadDim))
	for h := 0; h < a.Heads; h++ {
		lo := h * a.HeadDim
		hi := lo + a.HeadDim
		qh := a.q.SliceCols(lo, hi)
		kh := a.k.SliceCols(lo, hi)
		vh := a.v.SliceCols(lo, hi)

		// Causal scaled dot-product scores and row softmax.
		s := tensor.MatMulNT(qh, kh) // n x n
		s.Scale(invSqrt)
		att := tensor.New(n, n)
		for i := 0; i < n; i++ {
			srow := s.Row(i)[:i+1]
			arow := att.Row(i)[:i+1]
			tensor.Softmax(arow, srow)
		}
		a.attn[h] = att

		ctxh := tensor.MatMul(att, vh)
		a.ctx.SetSliceCols(lo, ctxh)
	}
	return a.WO.Forward(a.ctx)
}

// Backward propagates dOut (n x dim) through the attention block, returning
// dX and accumulating all projection gradients.
func (a *Attention) Backward(dOut *tensor.Mat) *tensor.Mat {
	if a.x == nil {
		panic("nn: Attention.Backward before Forward")
	}
	n := a.x.Rows
	invSqrt := 1 / math.Sqrt(float64(a.HeadDim))

	dCtx := a.WO.Backward(dOut) // n x dim
	dQ := tensor.New(n, a.Dim)
	dK := tensor.New(n, a.Dim)
	dV := tensor.New(n, a.Dim)

	for h := 0; h < a.Heads; h++ {
		lo := h * a.HeadDim
		hi := lo + a.HeadDim
		qh := a.q.SliceCols(lo, hi)
		kh := a.k.SliceCols(lo, hi)
		vh := a.v.SliceCols(lo, hi)
		att := a.attn[h]
		dCtxh := dCtx.SliceCols(lo, hi)

		// dV_h = A_hᵀ · dCtx_h ; dA = dCtx_h · V_hᵀ
		dVh := tensor.MatMulTN(att, dCtxh)
		dA := tensor.MatMulNT(dCtxh, vh)

		dS := tensor.New(n, n)
		causalSoftmaxBackward(dS, att, dA)

		// dQ_h = dS·K_h·invSqrt ; dK_h = dSᵀ·Q_h·invSqrt
		dQh := tensor.MatMul(dS, kh)
		dQh.Scale(invSqrt)
		dKh := tensor.MatMulTN(dS, qh)
		dKh.Scale(invSqrt)

		dQ.SetSliceCols(lo, dQh)
		dK.SetSliceCols(lo, dKh)
		dV.SetSliceCols(lo, dVh)
	}

	// Undo the rotary embedding on the gradients.
	if a.Rope != nil {
		a.Rope.ApplyInverse(dQ)
		a.Rope.ApplyInverse(dK)
	}

	dx := a.WQ.Backward(dQ)
	tensor.AddInPlace(dx, a.WK.Backward(dK))
	tensor.AddInPlace(dx, a.WV.Backward(dV))
	return dx
}

// causalSoftmaxBackward writes the score gradient of one head's causal row
// softmax into the lower triangle of dS (the rest is left as it is):
// dS_ij = A_ij · (dA_ij − Σ_k A_ik dA_ik), j <= i.
func causalSoftmaxBackward(dS, att, dA *tensor.Mat) {
	for i := 0; i < att.Rows; i++ {
		arow := att.Row(i)[:i+1]
		darow := dA.Row(i)[:i+1]
		dot := tensor.Dot(arow, darow)
		dsrow := dS.Row(i)[:i+1]
		for j := range arow {
			dsrow[j] = arow[j] * (darow[j] - dot)
		}
	}
}

// QKProbe is the working memory of Attention.ProbeQK, reused across calls
// so a calibration pass allocates it once per block rather than once per
// probe. The zero value is ready to use; it re-sizes itself when the
// sequence length changes.
type QKProbe struct {
	dCtx, dQ, dK                *tensor.Mat // n x Dim
	dCtxh, qh, kh, vh, dQh, dKh *tensor.Mat // n x HeadDim
	dA, dS                      *tensor.Mat // n x n; dS stays zero above the diagonal
	gq, gk                      *tensor.Mat // Dim x Dim
}

// fit sizes the scratch for n rows of a.
func (s *QKProbe) fit(a *Attention, n int) {
	if s.dCtx != nil && s.dCtx.Rows == n && s.dCtx.Cols == a.Dim && s.qh.Cols == a.HeadDim {
		return
	}
	s.dCtx, s.dQ, s.dK = tensor.New(n, a.Dim), tensor.New(n, a.Dim), tensor.New(n, a.Dim)
	s.dCtxh, s.qh, s.kh = tensor.New(n, a.HeadDim), tensor.New(n, a.HeadDim), tensor.New(n, a.HeadDim)
	s.vh, s.dQh, s.dKh = tensor.New(n, a.HeadDim), tensor.New(n, a.HeadDim), tensor.New(n, a.HeadDim)
	s.dA, s.dS = tensor.New(n, n), tensor.New(n, n)
	s.gq, s.gk = tensor.New(a.Dim, a.Dim), tensor.New(a.Dim, a.Dim)
}

// copyCols fills dst with columns [lo, lo+dst.Cols) of src.
func copyCols(dst, src *tensor.Mat, lo int) {
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Row(i), src.Row(i)[lo:lo+dst.Cols])
	}
}

// ProbeQK returns G_Q = ∂⟨R,F⟩/∂W_Q and G_K = ∂⟨R,F⟩/∂W_K for a probe R
// (n x dim) over the attention output F of the last Forward — the
// Jacobian probes of eqs. (12)/(13). It is the Q/K slice of Backward(R):
// dCtx = R·W_O, then per head dA → dS → dQ_h, dK_h, the inverse rotation,
// and dQᵀX, dKᵀX, through the same kernels in the same order, so both
// results equal the W_Q/W_K gradients Backward(R) adds to zeroed
// accumulators bit for bit. What the probe has no use for — W_O's and
// W_V's gradients, dV, dX — is not computed, and no Param.Grad is touched:
// ProbeQK only reads the forward caches and the weights, so probes of
// different blocks, and a backward pass through the same model, may run
// concurrently. The returned matrices belong to s and are overwritten by
// the next call.
func (a *Attention) ProbeQK(r *tensor.Mat, s *QKProbe) (gq, gk *tensor.Mat) {
	if a.x == nil {
		panic("nn: Attention.ProbeQK before Forward")
	}
	n := a.x.Rows
	s.fit(a, n)
	invSqrt := 1 / math.Sqrt(float64(a.HeadDim))

	tensor.MatMulInto(s.dCtx, r, AsLinear(a.WO).P.W)
	for h := 0; h < a.Heads; h++ {
		lo := h * a.HeadDim
		copyCols(s.qh, a.q, lo)
		copyCols(s.kh, a.k, lo)
		copyCols(s.vh, a.v, lo)
		copyCols(s.dCtxh, s.dCtx, lo)

		tensor.MatMulNTInto(s.dA, s.dCtxh, s.vh)
		causalSoftmaxBackward(s.dS, a.attn[h], s.dA)
		tensor.MatMulInto(s.dQh, s.dS, s.kh)
		s.dQh.Scale(invSqrt)
		tensor.MatMulTNInto(s.dKh, s.dS, s.qh)
		s.dKh.Scale(invSqrt)
		s.dQ.SetSliceCols(lo, s.dQh)
		s.dK.SetSliceCols(lo, s.dKh)
	}
	if a.Rope != nil {
		a.Rope.ApplyInverse(s.dQ)
		a.Rope.ApplyInverse(s.dK)
	}
	tensor.MatMulTNInto(s.gq, s.dQ, AsLinear(a.WQ).LastInput())
	tensor.MatMulTNInto(s.gk, s.dK, AsLinear(a.WK).LastInput())
	return s.gq, s.gk
}

// LastInput returns the cached block input X.
func (a *Attention) LastInput() *tensor.Mat { return a.x }

// LastContext returns the cached Concat(head_1..H) — the effective input of
// W_O per eq. (9).
func (a *Attention) LastContext() *tensor.Mat { return a.ctx }

// HeadAttn returns the cached softmax matrix A_h of head h (n x n, causal
// rows). Combined with the block input it yields eq. (11)'s M_h = A_h·X.
func (a *Attention) HeadAttn(h int) *tensor.Mat { return a.attn[h] }

// Params returns the projection parameters in Q, K, V, O order (including
// biases for biased variants).
func (a *Attention) Params() []*Param {
	var ps []*Param
	for _, l := range []Projection{a.WQ, a.WK, a.WV, a.WO} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// View returns an Attention sharing this block's projection weights and
// rotary tables but owning its forward caches, so concurrent decoding
// sessions never race on the per-forward scratch state.
func (a *Attention) View() *Attention {
	return &Attention{
		Dim: a.Dim, Heads: a.Heads, HeadDim: a.HeadDim,
		WQ: a.WQ.View(), WK: a.WK.View(), WV: a.WV.View(), WO: a.WO.View(),
		Rope: a.Rope,
	}
}
