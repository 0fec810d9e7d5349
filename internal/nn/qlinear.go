package nn

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// QuantizedLinear is the packed low-bit counterpart of Linear: it holds
// the bit-packed code stream plus group parameters of a quantized weight
// matrix and computes y = x·Wᵀ (+ bias) with group-wise dequantization on
// the fly, honoring per-row mixed precision: quant decodes eight weight
// rows at a time into a pooled k-major tile and multiplies it by every row
// of x (an AVX2 leaf where the CPU has it, portable Go elsewhere, the same
// bits either way). The float64 weight matrix is never materialized and a
// product builds nothing that outlives it, so a model running on
// QuantizedLinear layers keeps only the compressed representation resident
// (W.SizeBytes, pinned by quant's TestPackedProductBuildsNoResidentState)
// — the memory footprint the paper's "Avg bit" tables promise.
//
// Forward output is bit-identical to Linear.Forward over the dequantized
// weights (property-tested in qlinear_test.go). It is a deployment-time
// layer: Backward panics, and there is no input caching, which also makes
// Forward safe for concurrent use by batched decoding sessions.
type QuantizedLinear struct {
	Name string
	W    *quant.PackedMatrix
	// Bias stays in full precision (shared with the float original); nil
	// for bias-free architectures.
	Bias *Param
}

// NewQuantizedLinear wraps a packed matrix (and optional full-precision
// bias) as a projection layer.
func NewQuantizedLinear(name string, w *quant.PackedMatrix, bias *Param) *QuantizedLinear {
	if bias != nil && bias.W.Cols != w.Rows {
		panic(fmt.Sprintf("nn: QuantizedLinear %s bias width %d for %d outputs", name, bias.W.Cols, w.Rows))
	}
	return &QuantizedLinear{Name: name, W: w, Bias: bias}
}

// In returns the input dimension of the layer.
func (l *QuantizedLinear) In() int { return l.W.Cols }

// Out returns the output dimension of the layer.
func (l *QuantizedLinear) Out() int { return l.W.Rows }

// addBias adds the bias row to every row of y (no-op for bias-free layers).
func (l *QuantizedLinear) addBias(y *tensor.Mat) {
	if l.Bias == nil {
		return
	}
	b := l.Bias.W.Row(0)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += b[j]
		}
	}
}

// Forward computes y = x·Wᵀ (+ bias) straight from the packed codes.
func (l *QuantizedLinear) Forward(x *tensor.Mat) *tensor.Mat {
	y := l.W.MatMulNT(x)
	l.addBias(y)
	return y
}

// ForwardInto computes y = x·Wᵀ (+ bias) into out straight from the
// packed codes. Multi-row inputs (a prefill chunk, or one row from each
// slot of a decode tick) decode each weight tile once for all their rows;
// the result is bit-identical to Forward either way.
//
//aptq:noalloc
func (l *QuantizedLinear) ForwardInto(out, x *tensor.Mat) {
	l.W.MatMulNTInto(out, x)
	l.addBias(out)
}

// Backward is invalid on the packed deployment layer.
func (l *QuantizedLinear) Backward(dy *tensor.Mat) *tensor.Mat {
	panic(fmt.Sprintf("nn: Backward through packed quantized projection %s", l.Name))
}

// Params returns the full-precision bias, the only trainable tensor left.
func (l *QuantizedLinear) Params() []*Param {
	if l.Bias != nil {
		return []*Param{l.Bias}
	}
	return nil
}

// View returns the layer itself: QuantizedLinear keeps no forward scratch
// state, so sessions can share one instance.
func (l *QuantizedLinear) View() Projection { return l }

// WeightBytes returns the resident bytes of the packed weight
// representation.
func (l *QuantizedLinear) WeightBytes() int64 { return l.W.SizeBytes() }
