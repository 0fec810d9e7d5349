package nn

import (
	"math"
	"sync"

	"repro/internal/tensor"
)

// RoPE implements rotary position embeddings (the positional encoding used
// by LLaMA). For each attention head, consecutive pairs of channels
// (2i, 2i+1) are rotated by angle pos·θ_i with θ_i = base^(−2i/headDim).
//
// RoPE is a pure rotation, so the backward pass is the inverse rotation
// applied to the gradient.
//
// One RoPE instance is shared by every view of an attention block
// (concurrent decoding sessions included), so growth of the cos/sin tables
// beyond the precomputed range is guarded by a mutex: readers take a
// snapshot of the tables, and positions already published are never
// mutated.
type RoPE struct {
	HeadDim int
	Base    float64
	// mu guards growth of the cos/sin caches (indexed [pos][pair]);
	// readers that fit in the precomputed range — every rotation in a
	// MaxSeq-bounded decode — take only the read lock.
	mu       sync.RWMutex
	cos, sin [][]float64
}

// NewRoPE precomputes rotation tables for sequences up to maxSeq.
func NewRoPE(headDim, maxSeq int, base float64) *RoPE {
	if headDim%2 != 0 {
		panic("nn: RoPE head dimension must be even")
	}
	r := &RoPE{HeadDim: headDim, Base: base}
	r.tables(maxSeq)
	return r
}

// tables returns cos/sin snapshots covering positions [0, n), growing the
// cached tables first if needed. Existing rows are never modified, so a
// returned snapshot stays valid while other goroutines grow the cache.
func (r *RoPE) tables(n int) (cos, sin [][]float64) {
	r.mu.RLock()
	if n <= len(r.cos) {
		cos, sin = r.cos, r.sin
		r.mu.RUnlock()
		return cos, sin
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	pairs := r.HeadDim / 2
	for pos := len(r.cos); pos < n; pos++ {
		c := make([]float64, pairs)
		s := make([]float64, pairs)
		for i := 0; i < pairs; i++ {
			theta := float64(pos) * math.Pow(r.Base, -2*float64(i)/float64(r.HeadDim))
			c[i] = math.Cos(theta)
			s[i] = math.Sin(theta)
		}
		r.cos = append(r.cos, c)
		r.sin = append(r.sin, s)
	}
	return r.cos, r.sin
}

// Apply rotates x (n x dim, dim a multiple of HeadDim) in place, head by
// head, with the rotation for each row's position (row index = position).
func (r *RoPE) Apply(x *tensor.Mat) {
	r.rotate(x, 1)
}

// ApplyInverse applies the inverse rotation; this is the gradient transform
// for the backward pass.
func (r *RoPE) ApplyInverse(x *tensor.Mat) {
	r.rotate(x, -1)
}

func (r *RoPE) rotate(x *tensor.Mat, dir float64) {
	if x.Cols%r.HeadDim != 0 {
		panic("nn: RoPE input dim not a multiple of head dim")
	}
	cos, sin := r.tables(x.Rows)
	for t := 0; t < x.Rows; t++ {
		r.rotateRow(x.Row(t), cos[t], sin[t], dir)
	}
}

// ApplyAt rotates every row of x in place by the rotation of sequence
// position pos, regardless of row index. This is the incremental-decode
// entry point: a KV-cached step carries a single row that sits at position
// pos of the sequence, and rotating it directly avoids the O(pos)-sized
// padded matrix the batch Apply path would need per projection, per layer,
// per token.
func (r *RoPE) ApplyAt(x *tensor.Mat, pos int) {
	if x.Cols%r.HeadDim != 0 {
		panic("nn: RoPE input dim not a multiple of head dim")
	}
	if pos < 0 {
		panic("nn: RoPE position must be non-negative")
	}
	cos, sin := r.tables(pos + 1) //aptq:ignore noalloc trig tables are a lazy once-per-length cache; steady-state decode hits cached rows
	for t := 0; t < x.Rows; t++ {
		r.rotateRow(x.Row(t), cos[pos], sin[pos], 1)
	}
}

// ApplyRows rotates row t of x in place by the rotation of sequence
// position pos[t] — the entry point of the KV-cached block forward, whose
// rows are consecutive positions of one sequence (a prompt chunk) or one
// position each of several sequences (a decode batch). Bit-identical to
// ApplyAt row by row; Apply is ApplyRows at positions 0..n-1.
func (r *RoPE) ApplyRows(x *tensor.Mat, pos []int) {
	if x.Cols%r.HeadDim != 0 {
		panic("nn: RoPE input dim not a multiple of head dim")
	}
	if len(pos) != x.Rows {
		panic("nn: RoPE needs one position per row")
	}
	n := 0
	for _, p := range pos {
		if p < 0 {
			panic("nn: RoPE position must be non-negative")
		}
		if p >= n {
			n = p + 1
		}
	}
	cos, sin := r.tables(n) //aptq:ignore noalloc trig tables are a lazy once-per-length cache; steady-state forwards hit cached rows
	for t, p := range pos {
		r.rotateRow(x.Row(t), cos[p], sin[p], 1)
	}
}

// rotateRow rotates one row, head by head, with the given per-pair
// rotation tables.
func (r *RoPE) rotateRow(row, c, s []float64, dir float64) {
	heads := len(row) / r.HeadDim
	pairs := r.HeadDim / 2
	for h := 0; h < heads; h++ {
		off := h * r.HeadDim
		for i := 0; i < pairs; i++ {
			a, b := row[off+2*i], row[off+2*i+1]
			sn := dir * s[i]
			row[off+2*i] = a*c[i] - b*sn
			row[off+2*i+1] = a*sn + b*c[i]
		}
	}
}
