package quant

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// decodeTileRows runs the kernel's tile decoder over weight rows
// [lo, lo+rows) exactly as matMulNTRange does — a scratch pre-filled with
// NaNs standing in for a previous tile's weights — and returns the tile
// transposed back to rows x Cols. It fails the test if a column at or past
// rows is not all +0: the leaf multiplies those lanes too.
func decodeTileRows(t *testing.T, p *PackedMatrix, lo, rows int) *tensor.Mat {
	t.Helper()
	buf := make([]float64, (decodeBlockRows+1)*p.Cols)
	for i := range buf {
		buf[i] = math.NaN()
	}
	tile, spare := buf[:decodeBlockRows*p.Cols], buf[decodeBlockRows*p.Cols:]
	p.decodeTile(tile, spare, lo, rows, p.NumGroups())
	got := tensor.New(rows, p.Cols)
	for k := 0; k < p.Cols; k++ {
		for jj := 0; jj < decodeBlockRows; jj++ {
			v := tile[k*decodeBlockRows+jj]
			if jj < rows {
				got.Set(jj, k, v)
			} else if math.Float64bits(v) != 0 {
				t.Fatalf("%dx%d tile of rows [%d,%d): unused lane %d holds %v at k=%d, want +0", p.Rows, p.Cols, lo, lo+rows, jj, v, k)
			}
		}
	}
	return got
}

// decodeTiles decodes the whole matrix tile by tile, as a product does.
func decodeTiles(t *testing.T, p *PackedMatrix) *tensor.Mat {
	t.Helper()
	got := tensor.New(p.Rows, p.Cols)
	for lo := 0; lo < p.Rows; lo += decodeBlockRows {
		rows := min(decodeBlockRows, p.Rows-lo)
		copy(got.Data[lo*p.Cols:], decodeTileRows(t, p, lo, rows).Data)
	}
	return got
}

// TestDecodeRowsIntoMatchesDecodeRowInto drives the tile decoder through
// the accumulator-refill edge cases: group sizes that do not divide the
// column count, single-column matrices, and per-row bit widths spanning
// the whole 1..16 range (with groups of 4 and 100 the 4-bit and 2-bit rows
// take the byte-wise decoders, every other row the reference, inside the
// same call). Every decoded tile column must equal the per-row reference
// decode bit for bit.
func TestDecodeRowsIntoMatchesDecodeRowInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ rows, cols, group int }{
		{1, 1, 1},    // single element
		{9, 1, 1},    // single-column: every code triggers a refill path
		{9, 1, 4},    // single-column with group larger than the row
		{7, 13, 5},   // group size does not divide cols
		{12, 31, 7},  // ragged tail group
		{5, 24, 100}, // one group spanning the whole row
	}
	widths := [][]int{
		nil,                    // uniform Bits
		{1, 16, 4, 8, 3, 2, 7}, // mixed, including the 1-bit and 16-bit extremes
	}
	for _, sh := range shapes {
		for _, w := range widths {
			var rowBits []int
			if w != nil {
				rowBits = make([]int, sh.rows)
				for r := range rowBits {
					rowBits[r] = w[r%len(w)]
				}
			}
			q := randomQuantized(rng, sh.rows, sh.cols, sh.group, 6, rowBits)
			p, err := PackMatrix(q)
			if err != nil {
				t.Fatalf("%+v rowBits=%v: %v", sh, rowBits, err)
			}
			want := tensor.New(sh.rows, sh.cols)
			for r := 0; r < sh.rows; r++ {
				p.DecodeRowInto(want.Row(r), r)
			}
			// Tiles of several widths and offsets, full and partial.
			for _, block := range []int{1, 2, 3, min(sh.rows, decodeBlockRows)} {
				for lo := 0; lo+block <= sh.rows; lo += block {
					dst := decodeTileRows(t, p, lo, block)
					for i := 0; i < block; i++ {
						for j := 0; j < sh.cols; j++ {
							if dst.At(i, j) != want.At(lo+i, j) {
								t.Fatalf("%+v rowBits=%v block=%d: row %d col %d decoded %v, want %v",
									sh, rowBits, block, lo+i, j, dst.At(i, j), want.At(lo+i, j))
							}
						}
					}
				}
			}
			if !p.Dequantize().Equal(q.Dequantize(), 0) {
				t.Fatalf("%+v rowBits=%v: Dequantize drifted from the quantized source", sh, rowBits)
			}
		}
	}
}

// TestDecodeRowAlignedMatchesReference pins the byte-wise 4-bit and 2-bit
// tile decoders against QuantizedMatrix.Dequantize on the shapes that
// stress their byte handling — column counts that leave padding in a row's
// last byte, partial tail groups, single columns, one group spanning the
// row, and 4-bit groups of 16 codes and more, which take one 8-byte load
// per 16 codes and finish ragged (a group of 18, 20 or 24 leaves byte
// pairs after the load and starts the next group off an 8-byte boundary; a
// 100-wide group over 27, 33 or 47 columns ends in pairs and an odd code) —
// on a mixed matrix as APTQ's allocation produces per layer (2-bit and
// 4-bit rows, with a 3-bit row between them falling to the reference), and
// through the single-row matvec product that dispatches to them.
func TestDecodeRowAlignedMatchesReference(t *testing.T) {
	forEachLeaf(t, testDecodeRowAlignedMatchesReference)
}

func testDecodeRowAlignedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	type shape struct {
		rows, cols, group, bits int
		rowBits                 []int
	}
	shapes := []shape{
		{rows: 3, cols: 1, group: 2, bits: 4},   // single column: immediate odd tail
		{rows: 6, cols: 27, group: 4, bits: 4},  // odd cols, ragged tail group
		{rows: 5, cols: 15, group: 2, bits: 4},  // odd cols, minimal even group
		{rows: 8, cols: 32, group: 16, bits: 4}, // fully aligned
		{rows: 4, cols: 9, group: 100, bits: 4}, // one group spanning an odd row
		{rows: 9, cols: 64, group: 32, bits: 4}, // two 8-byte loads per group, partial last tile
		{rows: 8, cols: 32, group: 16, bits: 2}, // fully aligned
		{rows: 7, cols: 27, group: 8, rowBits: []int{2, 4, 3, 2, 4, 4, 2}},
		{rows: 7, cols: 64, group: 16, rowBits: []int{4, 4, 2, 3, 2, 2, 4}},
	}
	for _, cols := range []int{1, 2, 3, 5, 27} { // one to three codes in the last byte
		for _, group := range []int{4, 8, 16, 100} {
			shapes = append(shapes, shape{rows: 3, cols: cols, group: group, bits: 2})
		}
	}
	for _, cols := range []int{16, 17, 27, 33, 47, 70} { // 8-byte loads, then byte pairs, then an odd code
		for _, group := range []int{16, 18, 20, 24, 100} {
			shapes = append(shapes, shape{rows: 3, cols: cols, group: group, bits: 4})
		}
	}
	for _, sh := range shapes {
		q := randomQuantized(rng, sh.rows, sh.cols, sh.group, sh.bits, sh.rowBits)
		p, err := PackMatrix(q)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Dequantize()
		if dst := decodeTiles(t, p); !dst.Equal(want, 0) {
			t.Fatalf("%+v: byte-wise decode drifted from the reference", sh)
		}
		x := tensor.Randn(rng, 1, sh.cols, 1)
		if !p.MatMulNT(x).Equal(tensor.MatMulNT(x, want), 0) {
			t.Fatalf("%+v: packed matvec not bit-identical", sh)
		}
	}
}

// TestPackedMatMulNTMultiRowBitIdentical pins the matrix-matrix path to
// the dequantized float reference at every worker count and under both
// leaves, on the same edge-case shapes as the decoder test plus the ones
// the tile introduces: a zero-row x (a no-op), Rows of 1, 7 and 9 (the last
// tile partial: outputs past Rows must not be written — out is exactly
// Rows wide, so a stray store lands in the next row and shows), Cols of 1
// and 3, and per-row widths mixing the byte-wise 2-bit and 4-bit decoders
// with the 3-bit reference path inside one tile.
func TestPackedMatMulNTMultiRowBitIdentical(t *testing.T) {
	forEachLeaf(t, testPackedMatMulNTMultiRowBitIdentical)
}

func testPackedMatMulNTMultiRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := []struct{ rows, cols, group, xrows int }{
		{1, 1, 1, 4},
		{9, 1, 1, 3},
		{7, 13, 5, 2},
		{31, 17, 16, 16},
		{16, 48, 16, 9},
		{9, 48, 16, 0},
		{1, 3, 4, 1},
		{7, 3, 4, 5},
		{9, 1, 4, 4},
		{7, 48, 16, 6},
		{9, 33, 16, 17},
	}
	widths := [][]int{{1, 16, 4, 8, 3, 2}, {4, 2, 3, 4, 4, 2, 2}}
	for _, sh := range shapes {
		for _, w := range widths {
			rowBits := make([]int, sh.rows)
			for r := range rowBits {
				rowBits[r] = w[r%len(w)]
			}
			q := randomQuantized(rng, sh.rows, sh.cols, sh.group, 6, rowBits)
			p, err := PackMatrix(q)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.Randn(rng, sh.xrows, sh.cols, 1)
			if sh.xrows > 0 {
				x.Data[0] = 0 // exact zeros must not perturb the shared accumulation order
			}
			want := tensor.MatMulNT(x, q.Dequantize())
			for _, workers := range []int{1, 2, 3, 8} {
				parallel.SetWorkers(workers)
				got := p.MatMulNT(x)
				parallel.SetWorkers(0)
				if !got.Equal(want, 0) {
					t.Fatalf("%+v widths=%v workers=%d: multi-row packed matmul not bit-identical", sh, w, workers)
				}
			}
		}
	}
}

// FuzzPackedDecode feeds NewPackedFromStream arbitrary headers and
// streams, as a corrupt or hostile checkpoint would: it must either return
// an error or a matrix whose three decoders — the kernel's decodeTile, the
// reference DecodeRowInto and Unpack().Dequantize() — agree bit for bit,
// and never panic. Group parameters are drawn from the stream's own bytes.
// The seeds run as a plain test in `go test`.
func FuzzPackedDecode(f *testing.F) {
	f.Add(2, 8, 4, 4, []byte{0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe}) // byte-wise 4-bit
	f.Add(3, 5, 4, 2, []byte{0x1b, 0x02, 0xe4, 0x01, 0xff, 0x03})             // byte-wise 2-bit, padded tail
	f.Add(2, 5, 3, 3, []byte{0xff, 0x7f, 0x00, 0x00})                         // reference decoder
	f.Add(1, 3, 100, 16, []byte{1, 2, 3, 4, 5, 6})                            // widest codes, one group
	f.Add(1, 1, 1, 1, []byte{0xff})                                           // padding bits set
	f.Add(2, 8, 4, 4, []byte{0x10, 0x32})                                     // short stream
	f.Add(math.MaxInt, math.MaxInt, 1, 17, []byte{})                          // absurd header
	f.Add(1, 8, math.MaxInt, 4, []byte{1, 2, 3, 4})                           // group size that overflows cols+groupSize
	f.Add(-1, 0, 0, 0, []byte{0})
	f.Add(9, 20, 18, 4, bytes.Repeat([]byte{0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, 0x5a, 0xa5}, 9)) // 8-byte 4-bit loads, ragged groups, partial tile
	f.Add(1, 35, 100, 4, bytes.Repeat([]byte{0xe1, 0x7c}, 9))                                                // two loads, one pair, an odd code
	f.Fuzz(func(t *testing.T, rows, cols, groupSize, bits int, stream []byte) {
		// A stream of n bytes bounds a valid header (rows <= n, cols <= 8n),
		// so only then is there a parameter count worth allocating.
		var params []GroupParams
		if rows > 0 && cols > 0 && groupSize > 0 && rows <= len(stream) && cols <= 8*len(stream) {
			params = make([]GroupParams, rows*((cols-1)/groupSize+1))
			for i := range params {
				b := stream[i%len(stream)]
				params[i] = GroupParams{Scale: float64(b)/16 - 3, Zero: float64(b & 7)}
			}
		}
		p, err := NewPackedFromStream(rows, cols, groupSize, bits, nil, stream, params)
		if err != nil {
			return
		}
		want := p.Unpack().Dequantize()
		got := decodeTiles(t, p)
		row := make([]float64, cols)
		for r := 0; r < rows; r++ {
			p.DecodeRowInto(row, r)
			for c, v := range row {
				if bv := math.Float64bits(v); bv != math.Float64bits(got.At(r, c)) || bv != math.Float64bits(want.At(r, c)) {
					t.Fatalf("%dx%d g%d %d-bit (%d,%d): decodeTile %v, DecodeRowInto %v, Unpack().Dequantize() %v",
						rows, cols, groupSize, bits, r, c, got.At(r, c), v, want.At(r, c))
				}
			}
		}
	})
}
