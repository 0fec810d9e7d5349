package quant

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestDecodeRowsIntoMatchesDecodeRowInto drives the block decoder through
// the accumulator-refill edge cases: group sizes that do not divide the
// column count, single-column matrices, and per-row bit widths spanning
// the whole 1..16 range (with groups of 4 and 100 the 4-bit and 2-bit rows
// take the byte-wise decoders, every other row the reference, inside the
// same call). Every decoded block must equal the per-row reference decode
// bit for bit.
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
			// Block decodes at several block sizes and offsets.
			for _, block := range []int{1, 2, 3, sh.rows} {
				for lo := 0; lo+block <= sh.rows; lo += block {
					dst := tensor.New(block, sh.cols)
					p.decodeRows(dst.Data, lo, block)
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
// decoders against QuantizedMatrix.Dequantize on the shapes that stress
// their byte handling — column counts that leave padding in a row's last
// byte, partial tail groups, single columns, one group spanning the row —
// on a mixed matrix as APTQ's allocation produces per layer (2-bit and
// 4-bit rows, with a 3-bit row between them falling to the reference), and
// through the single-row matvec product that dispatches to them.
func TestDecodeRowAlignedMatchesReference(t *testing.T) {
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
		{rows: 8, cols: 32, group: 16, bits: 2}, // fully aligned
		{rows: 7, cols: 27, group: 8, rowBits: []int{2, 4, 3, 2, 4, 4, 2}},
		{rows: 7, cols: 64, group: 16, rowBits: []int{4, 4, 2, 3, 2, 2, 4}},
	}
	for _, cols := range []int{1, 2, 3, 5, 27} { // one to three codes in the last byte
		for _, group := range []int{4, 8, 16, 100} {
			shapes = append(shapes, shape{rows: 3, cols: cols, group: group, bits: 2})
		}
	}
	for _, sh := range shapes {
		q := randomQuantized(rng, sh.rows, sh.cols, sh.group, sh.bits, sh.rowBits)
		p, err := PackMatrix(q)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Dequantize()
		dst := tensor.New(sh.rows, sh.cols)
		p.decodeRows(dst.Data, 0, sh.rows)
		if !dst.Equal(want, 0) {
			t.Fatalf("%+v: byte-wise decode drifted from the reference", sh)
		}
		x := tensor.Randn(rng, 1, sh.cols, 1)
		if !p.MatMulNT(x).Equal(tensor.MatMulNT(x, want), 0) {
			t.Fatalf("%+v: packed matvec not bit-identical", sh)
		}
	}
}

// TestPackedMatMulNTMultiRowBitIdentical pins the matrix-matrix path to
// the dequantized float reference at every worker count, on the same
// edge-case shapes as the decoder test.
func TestPackedMatMulNTMultiRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := []struct{ rows, cols, group, xrows int }{
		{1, 1, 1, 4},
		{9, 1, 1, 3},
		{7, 13, 5, 2},
		{31, 17, 16, 16},
		{16, 48, 16, 9},
	}
	for _, sh := range shapes {
		rowBits := make([]int, sh.rows)
		for r := range rowBits {
			rowBits[r] = []int{1, 16, 4, 8, 3, 2}[r%6]
		}
		q := randomQuantized(rng, sh.rows, sh.cols, sh.group, 6, rowBits)
		p, err := PackMatrix(q)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.Randn(rng, sh.xrows, sh.cols, 1)
		x.Data[0] = 0 // exact zeros must not perturb the shared accumulation order
		want := tensor.MatMulNT(x, q.Dequantize())
		for _, workers := range []int{1, 2, 3, 8} {
			parallel.SetWorkers(workers)
			got := p.MatMulNT(x)
			parallel.SetWorkers(0)
			if !got.Equal(want, 0) {
				t.Fatalf("%+v workers=%d: multi-row packed matmul not bit-identical", sh, workers)
			}
		}
	}
}

// FuzzPackedDecode feeds NewPackedFromStream arbitrary headers and
// streams, as a corrupt or hostile checkpoint would: it must either return
// an error or a matrix whose three decoders — the kernel's decodeRows, the
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
		got := tensor.New(rows, cols)
		p.decodeRows(got.Data, 0, rows)
		row := make([]float64, cols)
		for r := 0; r < rows; r++ {
			p.DecodeRowInto(row, r)
			for c, v := range row {
				if bv := math.Float64bits(v); bv != math.Float64bits(got.At(r, c)) || bv != math.Float64bits(want.At(r, c)) {
					t.Fatalf("%dx%d g%d %d-bit (%d,%d): decodeRows %v, DecodeRowInto %v, Unpack().Dequantize() %v",
						rows, cols, groupSize, bits, r, c, got.At(r, c), v, want.At(r, c))
				}
			}
		}
	})
}
