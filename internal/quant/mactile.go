package quant

import "repro/internal/tensor"

// macTile is the leaf of the packed product: for every row i of x and every
// lane jj < width it stores
//
//	out[i][j0+jj] = Σ_k x[i][k] · tile[k*decodeBlockRows+jj]
//
// with each lane its own zero-initialised accumulator and k ascending: the
// statement s += x*w of tensor.MatMulNTInto's inner loop, term for term,
// which is what keeps the packed product bit-identical to the float one.
// Lanes at and past width are computed from the tile's zeroed columns and
// never stored.
//
// It is the one piece of the kernel with a second body. macTileGo below is
// the portable path and the reference; on amd64 an init replaces it with
// the AVX2 body when the CPU and OS support it (mactile_amd64.go). The Go
// compiler never fuses s += x*w on amd64, so that body rounds the multiply
// and the add separately too (VMULPD then VADDPD, never an FMA) and which
// of the two runs is not observable in any output
// (TestMacTileAVX2MatchesGo; the bit-identity suites run under both).
var macTile = macTileGo

// macTileGo is macTile in portable Go: eight independent accumulator
// chains per x row, so a single-row product is not one latency-bound chain.
//
//aptq:noalloc
func macTileGo(out, x *tensor.Mat, j0, width int, tile []float64) {
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		t := tile[:len(xrow)*decodeBlockRows]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k, xv := range xrow {
			w := (*[decodeBlockRows]float64)(t[k*decodeBlockRows:])
			s0 += xv * w[0]
			s1 += xv * w[1]
			s2 += xv * w[2]
			s3 += xv * w[3]
			s4 += xv * w[4]
			s5 += xv * w[5]
			s6 += xv * w[6]
			s7 += xv * w[7]
		}
		s := [decodeBlockRows]float64{s0, s1, s2, s3, s4, s5, s6, s7}
		copy(out.Row(i)[j0:j0+width], s[:])
	}
}
