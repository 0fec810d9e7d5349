package quant

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

func mustPanic(t *testing.T, contains string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", contains)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, contains) {
			t.Fatalf("panic %v does not contain %q", r, contains)
		}
	}()
	fn()
}

func TestPackRejectsOutOfRangeCode(t *testing.T) {
	// A code >= 2^bits used to have its high bits silently dropped,
	// corrupting the round-trip; Pack must now report the offending index.
	codes := []uint16{1, 2, 3, 9, 0}
	mustPanic(t, "index 3", func() { Pack(codes, 3) })
	mustPanic(t, "exceeds 2-bit", func() { Pack([]uint16{4}, 2) })
	// Boundary values still pack.
	Pack([]uint16{7}, 3)
	Pack([]uint16{0xffff}, 16)
}

func TestUnpackRejectsShortData(t *testing.T) {
	data := Pack([]uint16{1, 2, 3}, 5)
	mustPanic(t, "Unpack needs", func() { Unpack(data, 4, 5) })
	mustPanic(t, "Unpack needs", func() { Unpack(data[:len(data)-1], 3, 5) })
}

func TestPackUnpackRoundTripAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for bits := 1; bits <= 16; bits++ {
		for _, n := range []int{0, 1, 3, 7, 8, 17, 64, 129} {
			codes := make([]uint16, n)
			limit := 1 << bits
			for i := range codes {
				codes[i] = uint16(rng.Intn(limit))
			}
			got := Unpack(Pack(codes, bits), n, bits)
			for i := range codes {
				if got[i] != codes[i] {
					t.Fatalf("bits=%d n=%d: code %d round-tripped %d -> %d", bits, n, i, codes[i], got[i])
				}
			}
		}
	}
}

// randomQuantized builds a random QuantizedMatrix; when rowBits is non-nil
// it is used as the per-row widths.
func randomQuantized(rng *rand.Rand, rows, cols, groupSize, bits int, rowBits []int) *QuantizedMatrix {
	q := &QuantizedMatrix{
		Rows: rows, Cols: cols, GroupSize: groupSize, Bits: bits,
		RowBits: rowBits,
		Codes:   make([]uint16, rows*cols),
		Params:  make([]GroupParams, rows*((cols+groupSize-1)/groupSize)),
	}
	for r := 0; r < rows; r++ {
		b := bits
		if rowBits != nil {
			b = rowBits[r]
		}
		for c := 0; c < cols; c++ {
			q.Codes[r*cols+c] = uint16(rng.Intn(1 << b))
		}
	}
	for i := range q.Params {
		q.Params[i] = GroupParams{Scale: 0.01 + rng.Float64(), Zero: float64(rng.Intn(8))}
	}
	return q
}

func TestPackMatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := []struct{ rows, cols, group int }{
		{1, 1, 1}, {3, 5, 2}, {7, 13, 4}, {17, 31, 16}, {8, 24, 24}, {5, 9, 100},
	}
	for _, sh := range shapes {
		for bits := 1; bits <= 8; bits++ {
			var rowBits []int
			if sh.rows > 2 {
				rowBits = make([]int, sh.rows)
				for r := range rowBits {
					rowBits[r] = 1 + rng.Intn(8)
				}
			}
			q := randomQuantized(rng, sh.rows, sh.cols, sh.group, bits, rowBits)
			p, err := PackMatrix(q)
			if err != nil {
				t.Fatalf("%+v bits=%d: %v", sh, bits, err)
			}
			back := p.Unpack()
			for i := range q.Codes {
				if back.Codes[i] != q.Codes[i] {
					t.Fatalf("%+v bits=%d rowBits=%v: code %d round-tripped %d -> %d",
						sh, bits, rowBits, i, q.Codes[i], back.Codes[i])
				}
			}
			want := q.Dequantize()
			got := p.Dequantize()
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("%+v bits=%d: dequantize mismatch at %d", sh, bits, i)
				}
			}
		}
	}
}

func TestPackMatrixRejectsInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := randomQuantized(rng, 4, 6, 3, 3, nil)
	q.Codes[5] = 8 // out of 3-bit range
	if _, err := PackMatrix(q); err == nil {
		t.Fatal("expected validation error for out-of-range code")
	}
}

func TestNewPackedFromStreamValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := randomQuantized(rng, 4, 6, 3, 3, nil)
	p, err := PackMatrix(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPackedFromStream(p.Rows, p.Cols, p.GroupSize, p.Bits, nil, p.Data[:len(p.Data)-1], p.Params); err == nil {
		t.Fatal("expected stream length error")
	}
	if _, err := NewPackedFromStream(p.Rows, p.Cols, p.GroupSize, p.Bits, nil, p.Data, p.Params[:1]); err == nil {
		t.Fatal("expected params length error")
	}
	re, err := NewPackedFromStream(p.Rows, p.Cols, p.GroupSize, p.Bits, nil, p.Data, p.Params)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Dequantize().Equal(q.Dequantize(), 0) {
		t.Fatal("reassembled stream decodes differently")
	}
}

func TestPackedMatMulNTBitIdentical(t *testing.T) { forEachLeaf(t, testPackedMatMulNTBitIdentical) }

func testPackedMatMulNTBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []struct{ rows, cols, group, xrows int }{
		{1, 1, 1, 1}, {3, 5, 2, 2}, {13, 7, 4, 3}, {31, 17, 16, 5}, {16, 48, 16, 1},
		{7, 3, 4, 1}, {9, 48, 16, 4}, // partial last tile at one and at four rows of x
	}
	for _, sh := range shapes {
		for bits := 1; bits <= 8; bits++ {
			rowBits := make([]int, sh.rows)
			for r := range rowBits {
				rowBits[r] = 1 + rng.Intn(bits)
			}
			q := randomQuantized(rng, sh.rows, sh.cols, sh.group, bits, rowBits)
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
					t.Fatalf("%+v bits=%d workers=%d: packed matmul not bit-identical", sh, bits, workers)
				}
			}
		}
	}
}

func TestPackedSizeBytesCompression(t *testing.T) {
	// The acceptance bar of the packed path: at 4-bit with the repo's
	// default group size, the resident packed bytes must be >= 3x smaller
	// than the float64 weights they replace.
	rng := rand.New(rand.NewSource(6))
	w := tensor.Randn(rng, 48, 48, 1)
	q := RTN(w, 4, 16, false)
	p, err := PackMatrix(q)
	if err != nil {
		t.Fatal(err)
	}
	floatBytes := int64(8 * w.Rows * w.Cols)
	if 3*p.SizeBytes() > floatBytes {
		t.Fatalf("packed %d bytes vs float64 %d bytes: less than 3x compression", p.SizeBytes(), floatBytes)
	}
}
