package quant

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// PackedMatrix is the executable form of a quantized weight matrix: the
// dense bit-packed code stream of every row plus the per-(row, group)
// affine parameters, with nothing materialized to float64. It is what an
// edge deployment keeps resident — QuantizedMatrix is the manipulation
// format, PackedMatrix the serving format — and its matmul kernel
// dequantizes on the fly, honoring per-row mixed precision: eight weight
// rows at a time into a k-major tile that lives only in a pooled scratch
// (decodeTile), multiplied by the macTile leaf (MatMulNTInto).
//
// Each row's stream starts at a byte boundary (RowOff), so rows with
// different bit widths decode independently at the cost of at most 7
// padding bits per row.
type PackedMatrix struct {
	Rows, Cols int
	// GroupSize is the number of consecutive input-dimension (column)
	// entries sharing one scale/zero pair.
	GroupSize int
	// Bits is the uniform code width; RowBits, when non-nil, overrides it
	// per row (mixed precision within a matrix).
	Bits    int
	RowBits []int
	// RowOff[r] is the byte offset of row r's stream in Data;
	// RowOff[Rows] == len(Data).
	RowOff []int
	// Data holds the concatenated per-row packed code streams.
	Data []byte
	// Params holds one GroupParams per (row, group), row-major:
	// Params[r*numGroups + g].
	Params []GroupParams

	// pool recycles the per-worker decode scratch of the matmul kernel (one
	// tile of decodeBlockRows rows plus a spare row) so steady-state matrix
	// products allocate nothing; it is the only state a product adds to the
	// packed form.
	pool sync.Pool
}

// bitsForRow returns the bit width used by row r.
func (p *PackedMatrix) bitsForRow(r int) int {
	if p.RowBits != nil {
		return p.RowBits[r]
	}
	return p.Bits
}

// NumGroups returns the number of column groups per row.
func (p *PackedMatrix) NumGroups() int {
	return (p.Cols + p.GroupSize - 1) / p.GroupSize
}

// rowOffsets computes the per-row byte offsets of a packed stream holding
// cols codes per row at the given (possibly per-row) bit widths.
func rowOffsets(rows, cols, bits int, rowBits []int) []int {
	off := make([]int, rows+1)
	for r := 0; r < rows; r++ {
		b := bits
		if rowBits != nil {
			b = rowBits[r]
		}
		off[r+1] = off[r] + PackedSize(cols, b)
	}
	return off
}

// PackMatrix converts a QuantizedMatrix into its packed executable form.
// It validates the input first, so a code out of range for its row's bit
// width is reported (by Validate) rather than silently truncated.
func PackMatrix(q *QuantizedMatrix) (*PackedMatrix, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &PackedMatrix{
		Rows: q.Rows, Cols: q.Cols, GroupSize: q.GroupSize, Bits: q.Bits,
		RowOff: rowOffsets(q.Rows, q.Cols, q.Bits, q.RowBits),
		Params: append([]GroupParams(nil), q.Params...),
	}
	if q.RowBits != nil {
		p.RowBits = append([]int(nil), q.RowBits...)
	}
	p.Data = make([]byte, 0, p.RowOff[q.Rows])
	for r := 0; r < q.Rows; r++ {
		p.Data = append(p.Data, Pack(q.Codes[r*q.Cols:(r+1)*q.Cols], p.bitsForRow(r))...)
	}
	return p, nil
}

// NewPackedFromStream reassembles a PackedMatrix from its serialized parts
// (the compressed-checkpoint load path). The parts are untrusted: shape,
// widths, stream and parameter lengths are validated — sizes against the
// stream length first, so an absurd header cannot force a huge allocation
// or overflow the offset arithmetic — and every group parameter must be
// finite, or the served model would answer NaN logits with a nil error.
func NewPackedFromStream(rows, cols, groupSize, bits int, rowBits []int, data []byte, params []GroupParams) (*PackedMatrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("quant: invalid packed shape %dx%d", rows, cols)
	}
	if groupSize <= 0 || groupSize > math.MaxInt-cols {
		return nil, fmt.Errorf("quant: invalid packed group size %d", groupSize)
	}
	// Every row takes at least a byte and every code at least a bit.
	if rows > len(data) || cols > 8*len(data) {
		return nil, fmt.Errorf("quant: packed stream has %d bytes, too few for %dx%d", len(data), rows, cols)
	}
	if rowBits != nil && len(rowBits) != rows {
		return nil, fmt.Errorf("quant: %d row bit widths for %d rows", len(rowBits), rows)
	}
	for r := 0; r < rows; r++ {
		b := bits
		if rowBits != nil {
			b = rowBits[r]
		}
		if b < 1 || b > 16 {
			return nil, fmt.Errorf("quant: row %d has invalid bit width %d", r, b)
		}
	}
	p := &PackedMatrix{
		Rows: rows, Cols: cols, GroupSize: groupSize, Bits: bits,
		RowBits: rowBits,
		RowOff:  rowOffsets(rows, cols, bits, rowBits),
		Data:    data,
		Params:  params,
	}
	if len(data) != p.RowOff[rows] {
		return nil, fmt.Errorf("quant: packed stream has %d bytes, want %d", len(data), p.RowOff[rows])
	}
	if want := rows * p.NumGroups(); len(params) != want {
		return nil, fmt.Errorf("quant: packed matrix has %d group params, want %d", len(params), want)
	}
	for i, gp := range params {
		if !finite(gp.Scale) || !finite(gp.Zero) {
			return nil, fmt.Errorf("quant: row %d group %d has non-finite parameters (scale %v, zero %v)",
				i/p.NumGroups(), i%p.NumGroups(), gp.Scale, gp.Zero)
		}
	}
	return p, nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// DecodeRowInto dequantizes row r of the weight matrix into dst
// (len >= Cols), group by group straight from the bit stream. The decoded
// values are bit-identical to Dequantize() of the source QuantizedMatrix.
// It is the reference every other decoder is tested against and the
// kernel's decoder for every row decodeTile has no byte-wise one for.
//
//aptq:noalloc
func (p *PackedMatrix) DecodeRowInto(dst []float64, r int) {
	bits := p.bitsForRow(r)
	data := p.Data[p.RowOff[r]:p.RowOff[r+1]]
	ng := p.NumGroups()
	mask := uint64(1)<<bits - 1
	var acc uint64
	nacc := 0
	idx := 0
	c := 0
	for g := 0; g < ng; g++ {
		gp := p.Params[r*ng+g]
		scale, zero := gp.Scale, gp.Zero
		hi := c + p.GroupSize
		if hi > p.Cols {
			hi = p.Cols
		}
		for ; c < hi; c++ {
			if nacc < bits {
				// Refill the accumulator to capacity so most codes extract
				// with just a mask and shift.
				for nacc <= 56 && idx < len(data) {
					acc |= uint64(data[idx]) << nacc
					idx++
					nacc += 8
				}
			}
			dst[c] = (float64(acc&mask) - zero) * scale
			acc >>= bits
			nacc -= bits
		}
	}
}

// Unpack reverses PackMatrix, reconstructing the manipulation-format
// QuantizedMatrix (codes and parameters are copied).
func (p *PackedMatrix) Unpack() *QuantizedMatrix {
	q := &QuantizedMatrix{
		Rows: p.Rows, Cols: p.Cols, GroupSize: p.GroupSize, Bits: p.Bits,
		Codes:  make([]uint16, p.Rows*p.Cols),
		Params: append([]GroupParams(nil), p.Params...),
	}
	if p.RowBits != nil {
		q.RowBits = append([]int(nil), p.RowBits...)
	}
	for r := 0; r < p.Rows; r++ {
		UnpackInto(q.Codes[r*p.Cols:(r+1)*p.Cols], p.Data[p.RowOff[r]:p.RowOff[r+1]], p.bitsForRow(r))
	}
	return q
}

// Dequantize materializes the full float64 weight matrix (test/debug path;
// the matmul kernels never call it).
func (p *PackedMatrix) Dequantize() *tensor.Mat {
	m := tensor.New(p.Rows, p.Cols)
	for r := 0; r < p.Rows; r++ {
		p.DecodeRowInto(m.Row(r), r)
	}
	return m
}

// decodeBlockRows is the number of weight rows each matmul worker decodes
// together — the tile width — before running the inner products: one k of
// the tile is 64 bytes (a cache line, two AVX2 vectors), a multi-row x
// reuses every decoded tile from cache, and the per-worker scratch stays a
// few KiB.
const decodeBlockRows = 8

// getScratch returns the pooled per-worker scratch of a product:
// (decodeBlockRows+1) x Cols float64s — the k-major tile followed by the
// one spare row decodeTile's reference path decodes into.
func (p *PackedMatrix) getScratch() *[]float64 {
	if v, ok := p.pool.Get().(*[]float64); ok {
		return v
	}
	b := make([]float64, (decodeBlockRows+1)*p.Cols) //aptq:ignore noalloc pool-miss path: the buffer enters the pool and the steady state reuses it
	return &b
}

// MatMulNTInto computes out = x·Wᵀ for x (n x Cols) against the packed
// weight matrix W (Rows x Cols), dequantizing W a tile of decodeBlockRows
// rows at a time into a pooled per-worker scratch buffer (decodeTile:
// byte-aligned 4-bit and 2-bit rows through the byte-wise tile decoders,
// the rest through DecodeRowInto) and handing each tile to the macTile
// leaf, so a multi-row x (a prompt chunk, or one row from each session of
// a decode tick) pays each weight row's decode once for all its rows and
// nothing but the packed form stays resident. Weight rows (output columns)
// partition across workers on tile boundaries; each output element
// accumulates its k-terms in ascending order from a zero accumulator — the
// exact inner-loop order of tensor.MatMulNTInto — so the result is
// bit-identical to MatMulNT(x, W.Dequantize()) at any worker count and
// under either body of the leaf.
func (p *PackedMatrix) MatMulNTInto(out, x *tensor.Mat) {
	if x.Cols != p.Cols || out.Rows != x.Rows || out.Cols != p.Rows {
		panic(fmt.Sprintf("quant: packed MatMulNT shape mismatch %dx%d · (%dx%d)ᵀ -> %dx%d",
			x.Rows, x.Cols, p.Rows, p.Cols, out.Rows, out.Cols))
	}
	if parallel.Workers() == 1 {
		p.matMulNTRange(out, x, 0, p.Rows)
		return
	}
	parallel.For(p.Rows, rowGrainPacked(x.Rows*p.Cols), func(lo, hi int) {
		p.matMulNTRange(out, x, lo, hi)
	})
}

// matMulNTRange computes output columns [lo, hi) of out = x·Wᵀ: it decodes
// the owned weight rows tile by tile through a pooled scratch buffer and
// runs the macTile leaf on each. The leaf is the only part of the product
// with more than one body; decode, blocking and partition are shared.
func (p *PackedMatrix) matMulNTRange(out, x *tensor.Mat, lo, hi int) {
	buf := p.getScratch()
	tile, spare := (*buf)[:decodeBlockRows*p.Cols], (*buf)[decodeBlockRows*p.Cols:]
	ng := p.NumGroups()
	for j0 := lo; j0 < hi; j0 += decodeBlockRows {
		width := min(decodeBlockRows, hi-j0)
		p.decodeTile(tile, spare, j0, width, ng)
		macTile(out, x, j0, width, tile) //aptq:ignore noalloc the leaf variable holds macTileGo or macTileAVX2, each a //aptq:noalloc root
	}
	p.pool.Put(buf)
}

// MatMulNT returns x·Wᵀ (see MatMulNTInto).
func (p *PackedMatrix) MatMulNT(x *tensor.Mat) *tensor.Mat {
	out := tensor.New(x.Rows, p.Rows)
	p.MatMulNTInto(out, x)
	return out
}

// rowGrainPacked mirrors tensor's chunk sizing — enough weight rows per
// chunk that one chunk carries roughly 1<<15 multiply-adds (plus the row
// decode, which is linear in Cols and amortized by the same constant) —
// rounded down to whole tiles, so every chunk starts on a tile boundary
// and only a matrix's last tile can be partial.
func rowGrainPacked(opsPerRow int) int {
	if opsPerRow <= 0 {
		return decodeBlockRows
	}
	g := (1 << 15) / opsPerRow / decodeBlockRows * decodeBlockRows
	return max(g, decodeBlockRows)
}

// SizeBytes returns the resident memory footprint of the packed form: the
// bit streams, the float64 group parameters, and the per-row offset/width
// bookkeeping. Products decode through a pooled scratch and build nothing
// that outlives them (TestPackedProductBuildsNoResidentState), so this is
// all a served matrix holds — the number the serving-memory comparisons
// report against 8 bytes per float64 weight.
func (p *PackedMatrix) SizeBytes() int64 {
	b := int64(len(p.Data)) + int64(len(p.Params))*16 + int64(len(p.RowOff))*8
	if p.RowBits != nil {
		b += int64(len(p.RowBits)) * 8
	}
	return b
}

// AvgBits returns the average resident bits per weight including all
// metadata (cf. QuantizedMatrix.AvgBits, which uses the paper's fp16
// metadata convention instead of the actual in-memory float64 params).
func (p *PackedMatrix) AvgBits() float64 {
	return float64(p.SizeBytes()*8) / float64(p.Rows*p.Cols)
}

// EnsureLUT does nothing: the packed form has no dequantization tables.
//
// Deprecated: kept only because bench/ calls it and may not change in the
// PR that deleted the tables; it goes with those calls.
func (p *PackedMatrix) EnsureLUT() {}

// LUTBytes returns 0 (see EnsureLUT).
//
// Deprecated: kept only for bench/, like EnsureLUT.
func (p *PackedMatrix) LUTBytes() int64 { return 0 }
