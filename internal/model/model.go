// Package model composes the nn layers into a LLaMA-architecture
// decoder-only language model and exposes the named-layer registry that the
// quantization pipelines iterate over.
//
// Two reference configurations stand in for the paper's LLaMA-7B and
// LLaMA-13B (see DESIGN.md §2 for the substitution rationale): they share
// the architecture — RMSNorm pre-norm, rotary attention, SwiGLU MLP — at
// sizes trainable on a single CPU.
package model

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Arch selects the transformer family.
type Arch int

// Supported architectures.
const (
	// ArchLLaMA: RMSNorm, rotary attention, SwiGLU, no biases (default).
	ArchLLaMA Arch = iota
	// ArchGPT: LayerNorm, learned positional embeddings, biased
	// projections, GELU MLP — the GPT-2/OPT family the paper's
	// introduction also targets.
	ArchGPT
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case ArchLLaMA:
		return "llama"
	case ArchGPT:
		return "gpt"
	default:
		return "unknown"
	}
}

// Config describes a model architecture.
type Config struct {
	Name     string
	Arch     Arch
	Vocab    int
	Dim      int
	Heads    int
	Layers   int
	FF       int
	MaxSeq   int
	RopeBase float64
}

// Nano7B is the LLaMA-7B stand-in: the same depth-to-width regime scaled to
// single-CPU pretraining. Six blocks keep whole-block mixed-precision
// ablations (Table 3) meaningfully granular.
func Nano7B() Config {
	return Config{Name: "nano-7B", Vocab: 128, Dim: 48, Heads: 4, Layers: 6, FF: 128, MaxSeq: 64, RopeBase: 10000}
}

// Nano13B is the LLaMA-13B stand-in: deeper and wider than Nano7B in the
// same ratio direction as 13B is to 7B.
func Nano13B() Config {
	return Config{Name: "nano-13B", Vocab: 128, Dim: 64, Heads: 4, Layers: 8, FF: 176, MaxSeq: 64, RopeBase: 10000}
}

// Tiny is a minimal configuration for fast unit tests.
func Tiny() Config {
	return Config{Name: "tiny", Vocab: 32, Dim: 16, Heads: 2, Layers: 2, FF: 24, MaxSeq: 32, RopeBase: 10000}
}

// NanoGPT is a GPT/OPT-architecture sibling of Nano7B, demonstrating that
// the quantization pipelines are architecture-agnostic.
func NanoGPT() Config {
	return Config{Name: "nano-GPT", Arch: ArchGPT, Vocab: 128, Dim: 48, Heads: 4, Layers: 6, FF: 128, MaxSeq: 64}
}

// TinyGPT is a minimal GPT-architecture configuration for fast unit tests.
func TinyGPT() Config {
	return Config{Name: "tiny-gpt", Arch: ArchGPT, Vocab: 32, Dim: 16, Heads: 2, Layers: 2, FF: 24, MaxSeq: 32}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Vocab <= 0:
		return fmt.Errorf("model: vocab %d", c.Vocab)
	case c.Dim <= 0 || c.Heads <= 0 || c.Dim%c.Heads != 0:
		return fmt.Errorf("model: dim %d not divisible by heads %d", c.Dim, c.Heads)
	case c.Arch == ArchLLaMA && (c.Dim/c.Heads)%2 != 0:
		return fmt.Errorf("model: head dim %d must be even for RoPE", c.Dim/c.Heads)
	case c.Layers <= 0 || c.FF <= 0 || c.MaxSeq <= 0:
		return fmt.Errorf("model: non-positive layers/ff/maxseq")
	}
	return nil
}

// Model is the decoder-only language model.
type Model struct {
	Cfg   Config
	Embed *nn.Embedding
	// PosEmbed is the learned positional table (ArchGPT only; nil for
	// LLaMA, which encodes positions with RoPE inside attention).
	PosEmbed *nn.Embedding
	Blocks   []*nn.Block
	Norm     nn.Norm
	Head     *nn.Linear
}

// New constructs a model with seeded random initialization.
func New(cfg Config, seed int64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{
		Cfg:   cfg,
		Embed: nn.NewEmbedding(rng, "embed", cfg.Vocab, cfg.Dim),
		Head:  nn.NewLinear(rng, "head", cfg.Dim, cfg.Vocab, false),
	}
	switch cfg.Arch {
	case ArchGPT:
		m.PosEmbed = nn.NewEmbedding(rng, "pos_embed", cfg.MaxSeq, cfg.Dim)
		m.Norm = nn.NewLayerNorm("final_norm", cfg.Dim)
		for i := 0; i < cfg.Layers; i++ {
			m.Blocks = append(m.Blocks, nn.NewGPTBlock(rng, fmt.Sprintf("block%02d", i), cfg.Dim, cfg.Heads, cfg.FF))
		}
	default:
		m.Norm = nn.NewRMSNorm("final_norm", cfg.Dim)
		for i := 0; i < cfg.Layers; i++ {
			m.Blocks = append(m.Blocks, nn.NewBlock(rng, fmt.Sprintf("block%02d", i), cfg.Dim, cfg.Heads, cfg.FF, cfg.MaxSeq, cfg.RopeBase))
		}
	}
	return m
}

// Forward computes next-token logits (n x vocab) for a token id sequence.
func (m *Model) Forward(ids []int) *tensor.Mat {
	x := m.Embed.Forward(ids)
	if m.PosEmbed != nil {
		positions := make([]int, len(ids))
		for i := range positions {
			positions[i] = i
		}
		tensor.AddInPlace(x, m.PosEmbed.Forward(positions))
	}
	for _, b := range m.Blocks {
		x = b.Forward(x)
	}
	return m.Head.Forward(m.Norm.Forward(x))
}

// EmbedRowsInto writes the embeddings of ids into dst (len(ids) x Dim),
// adding the learned positional row of absolute position pos[t] to row t
// on architectures that have them (ArchGPT; RoPE models encode position
// inside attention). This is the model-level entry of the KV-cached block
// forward, whose rows may be consecutive positions of one sequence or one
// position each of several; bit-identical to Forward's embed-and-add.
func (m *Model) EmbedRowsInto(dst *tensor.Mat, ids, pos []int) {
	m.Embed.ForwardInto(dst, ids)
	if m.PosEmbed != nil {
		for t, p := range pos {
			tensor.Axpy(1, m.PosEmbed.P.W.Row(p), dst.Row(t))
		}
	}
}

// Loss runs Forward and cross-entropy against targets (targets[t] is the
// token that should follow ids[t]; -1 masks a position).
func (m *Model) Loss(ids []int, targets []int) float64 {
	loss, _ := nn.CrossEntropy(m.Forward(ids), targets)
	return loss
}

// LossAndBackward computes the loss and accumulates gradients on every
// parameter. Callers zero gradients beforehand (see ZeroGrad).
func (m *Model) LossAndBackward(ids []int, targets []int) float64 {
	return m.BackwardFromLogits(m.Forward(ids), targets)
}

// BackwardFromLogits is the backward half of LossAndBackward: given the
// logits of the most recent Forward (whose layer caches it reads), it
// computes the cross-entropy loss against targets and accumulates
// gradients on every parameter. A caller that already ran Forward for
// another purpose — calibration reads the same caches for its Hessian
// statistics — gets the loss gradient without a second forward.
func (m *Model) BackwardFromLogits(logits *tensor.Mat, targets []int) float64 {
	loss, dLogits := nn.CrossEntropy(logits, targets)
	dx := m.Norm.Backward(m.Head.Backward(dLogits))
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		dx = m.Blocks[i].Backward(dx)
	}
	m.Embed.Backward(dx)
	if m.PosEmbed != nil {
		m.PosEmbed.Backward(dx)
	}
	return loss
}

// Params returns every trainable parameter in a deterministic order.
func (m *Model) Params() []*nn.Param {
	ps := m.Embed.Params()
	if m.PosEmbed != nil {
		ps = append(ps, m.PosEmbed.Params()...)
	}
	for _, b := range m.Blocks {
		ps = append(ps, b.Params()...)
	}
	ps = append(ps, m.Norm.Params()...)
	ps = append(ps, m.Head.Params()...)
	return ps
}

// ZeroGrad resets all gradient accumulators.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.NumEl()
	}
	return n
}

// View returns a model sharing every weight tensor with m but owning all
// per-forward scratch state (attention caches, norm caches, linear input
// caches). Concurrent decoding sessions each run on their own view, so N
// sessions share one copy of the weights — the serving-memory property the
// packed deployment path depends on — without racing on forward caches.
// Views are forward-only by convention: training a view corrupts shared
// gradients nondeterministically.
func (m *Model) View() *Model {
	v := &Model{
		Cfg:   m.Cfg,
		Embed: m.Embed.View(),
		Norm:  m.Norm.View(),
		Head:  nn.AsLinear(m.Head.View()),
	}
	if m.PosEmbed != nil {
		v.PosEmbed = m.PosEmbed.View()
	}
	for _, b := range m.Blocks {
		v.Blocks = append(v.Blocks, b.View())
	}
	return v
}

// Views returns n independent forward views of m (see View). This is the
// slot-pool constructor serving uses: every decoding slot gets its own
// scratch state over the one resident weight copy, and the slots are
// recycled across requests (infer.Session.Reset) rather than re-viewed,
// so admission of a new request allocates nothing weight-shaped.
func (m *Model) Views(n int) []*Model {
	if n <= 0 {
		panic(fmt.Sprintf("model: %d views", n))
	}
	vs := make([]*Model, n)
	for i := range vs {
		vs[i] = m.View()
	}
	return vs
}

// Clone returns a deep copy of the model (weights copied, gradients
// zeroed). Deployment-time input transforms on Linear layers (InScale,
// ActQuant) are not carried over; quantizers install them on the clone they
// return.
func (m *Model) Clone() *Model {
	c := New(m.Cfg, 0)
	src := m.Params()
	dst := c.Params()
	if len(src) != len(dst) {
		// A packed (projection-swapped) model exposes fewer trainable
		// params than a freshly built float model; an index-wise copy
		// would misalign.
		panic(fmt.Sprintf("model: Clone of a packed/quantized model (%d params, float model has %d)", len(src), len(dst)))
	}
	for i := range src {
		dst[i].W.CopyFrom(src[i].W)
	}
	return c
}
