package infer

import (
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/tensor"
)

// internal/quant's leaf variable and its portable body, reached by name:
// they are unexported on purpose (which leaf runs is not an API), and this
// test-only reference is the switch that lets the packed bit-identity
// digest of this package run under both.

//go:linkname quantMacTile repro/internal/quant.macTile
var quantMacTile func(out, x *tensor.Mat, j0, width int, tile []float64)

//go:linkname quantMacTileGo repro/internal/quant.macTileGo
func quantMacTileGo(out, x *tensor.Mat, j0, width int, tile []float64)

// forEachLeaf runs fn under the leaf quant's init selected for this
// platform and again under the portable Go leaf (see quant's forEachLeaf).
func forEachLeaf(t *testing.T, fn func(t *testing.T)) {
	t.Run("leaf=platform", fn)
	saved := quantMacTile
	defer func() { quantMacTile = saved }()
	quantMacTile = quantMacTileGo
	t.Run("leaf=go", fn)
}
