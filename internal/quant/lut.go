package quant

// lutMaxBits bounds the code widths that get a dequantization table. A
// (1<<bits)-entry float64 table per (row, group) is tiny at deployment
// widths (<= 8 bits: at most 2 KiB per group) but would be 512 KiB per
// group at 16 bits, so wider rows keep the arithmetic decode path. Both
// paths produce bit-identical values.
const lutMaxBits = 8

// dequantLUT holds the per-(row, group) dequantization tables of a packed
// matrix: entry c of group (r, g)'s table is the decoded value
// (float64(c) - zero) * scale, precomputed once so the hot decode loop
// replaces the int-to-float convert, subtract and multiply of every code
// with a single table load. Entries are bit-identical to the arithmetic
// decode because they are computed by the exact same float64 expression.
type dequantLUT struct {
	// off[r*numGroups+g] is the start of group (r, g)'s table in tab, or
	// -1 when row r is wider than lutMaxBits and decodes arithmetically.
	off []int
	tab []float64
}

// EnsureLUT builds the dequantization tables. It is idempotent and safe
// for concurrent use — the packed matmul calls it lazily on the first
// product of any shape, single-row decode matvecs included — and rows
// wider than lutMaxBits are skipped (they keep the arithmetic decode).
// The tables are an acceleration structure, excluded from SizeBytes (see
// LUTBytes for their resident cost).
func (p *PackedMatrix) EnsureLUT() {
	p.lutOnce.Do(func() {
		ng := p.NumGroups()
		l := &dequantLUT{off: make([]int, p.Rows*ng)}
		size := 0
		for r := 0; r < p.Rows; r++ {
			bits := p.bitsForRow(r)
			for g := 0; g < ng; g++ {
				if bits > lutMaxBits {
					l.off[r*ng+g] = -1
					continue
				}
				l.off[r*ng+g] = size
				size += 1 << bits
			}
		}
		l.tab = make([]float64, size)
		for r := 0; r < p.Rows; r++ {
			bits := p.bitsForRow(r)
			if bits > lutMaxBits {
				continue
			}
			for g := 0; g < ng; g++ {
				gp := p.Params[r*ng+g]
				t := l.tab[l.off[r*ng+g]:][:1<<bits]
				for c := range t {
					t[c] = (float64(c) - gp.Zero) * gp.Scale
				}
			}
		}
		p.lut = l
	})
}

// LUTBytes reports the resident size of the dequantization tables (0
// until EnsureLUT runs). The tables are an acceleration structure of every
// packed product, not part of the serialized packed form, so SizeBytes —
// the footprint the compression-ratio comparisons use — excludes them.
func (p *PackedMatrix) LUTBytes() int64 {
	if p.lut == nil {
		return 0
	}
	return int64(len(p.lut.tab))*8 + int64(len(p.lut.off))*8
}

// decodeRowLUT dequantizes row r into dst via the tables: the same
// streaming bit-accumulator as DecodeRowInto, with the affine arithmetic
// replaced by one table load per code. The caller guarantees the row is
// table-eligible (bits <= lutMaxBits).
//
//aptq:noalloc
func (p *PackedMatrix) decodeRowLUT(dst []float64, r int, lut *dequantLUT) {
	bits := p.bitsForRow(r)
	data := p.Data[p.RowOff[r]:p.RowOff[r+1]]
	ng := p.NumGroups()
	mask := uint64(1)<<bits - 1
	var acc uint64
	nacc := 0
	idx := 0
	c := 0
	for g := 0; g < ng; g++ {
		tab := lut.tab[lut.off[r*ng+g]:]
		hi := c + p.GroupSize
		if hi > p.Cols {
			hi = p.Cols
		}
		for ; c < hi; c++ {
			if nacc < bits {
				for nacc <= 56 && idx < len(data) {
					acc |= uint64(data[idx]) << nacc
					idx++
					nacc += 8
				}
			}
			dst[c] = tab[acc&mask]
			acc >>= bits
			nacc -= bits
		}
	}
}

// decodeRowLUT4 is the specialized decoder for the headline deployment
// width: 4-bit rows whose groups are byte-aligned (even GroupSize), i.e.
// exactly two codes per stream byte. It replaces the general streaming
// bit-accumulator — a serial refill/shift dependency chain per code —
// with one byte load and two table lookups, which is what makes the
// packed decode matvec competitive per token. The decoded values are the
// same table entries the general path loads, so the result is
// bit-identical.
//
//aptq:noalloc
func (p *PackedMatrix) decodeRowLUT4(dst []float64, r int, lut *dequantLUT) {
	data := p.Data[p.RowOff[r]:p.RowOff[r+1]]
	ng := p.NumGroups()
	idx, c := 0, 0
	for g := 0; g < ng; g++ {
		tab := lut.tab[lut.off[r*ng+g]:]
		hi := c + p.GroupSize
		if hi > p.Cols {
			hi = p.Cols
		}
		for ; c+1 < hi; c += 2 {
			b := data[idx]
			idx++
			dst[c] = tab[b&15]
			dst[c+1] = tab[b>>4]
		}
		if c < hi {
			// Odd tail: only the final (partial) group of an odd-Cols row;
			// the byte's high nibble is padding.
			dst[c] = tab[data[idx]&15]
			idx++
			c++
		}
	}
}

// decodeRows decodes weight rows [lo, lo+rows) into buf (rows*Cols,
// row-major). When lut is non-nil, table-eligible rows take the LUT path
// (4-bit byte-aligned rows the specialized two-codes-per-byte decoder);
// everything else (and every row when lut is nil) uses the arithmetic
// DecodeRowInto. All paths are bit-identical.
func (p *PackedMatrix) decodeRows(buf []float64, lo, rows int, lut *dequantLUT) {
	aligned4 := p.GroupSize%2 == 0
	for i := 0; i < rows; i++ {
		dst := buf[i*p.Cols : (i+1)*p.Cols]
		r := lo + i
		bits := p.bitsForRow(r)
		switch {
		case lut != nil && bits == 4 && aligned4:
			p.decodeRowLUT4(dst, r, lut)
		case lut != nil && bits <= lutMaxBits:
			p.decodeRowLUT(dst, r, lut)
		default:
			p.DecodeRowInto(dst, r)
		}
	}
}
