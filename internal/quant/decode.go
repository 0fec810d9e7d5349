package quant

// decodeRow4 is the decoder for the headline deployment width: 4-bit rows
// whose groups are byte-aligned (even GroupSize), i.e. exactly two codes
// per stream byte. It replaces DecodeRowInto's streaming bit-accumulator
// — a serial refill/shift dependency chain per code — with one byte load
// per two codes; each value is GroupParams.Decode's expression, so the
// result is bit-identical to DecodeRowInto.
//
//aptq:noalloc
func (p *PackedMatrix) decodeRow4(dst []float64, r int) {
	data := p.Data[p.RowOff[r]:p.RowOff[r+1]]
	ng := p.NumGroups()
	idx, c := 0, 0
	for g := 0; g < ng; g++ {
		gp := p.Params[r*ng+g]
		scale, zero := gp.Scale, gp.Zero
		hi := c + p.GroupSize
		if hi > p.Cols {
			hi = p.Cols
		}
		for ; c+1 < hi; c += 2 {
			b := data[idx]
			idx++
			dst[c] = (float64(b&15) - zero) * scale
			dst[c+1] = (float64(b>>4) - zero) * scale
		}
		if c < hi {
			// Odd tail: only the final (partial) group of an odd-Cols row;
			// the byte's high nibble is padding.
			dst[c] = (float64(data[idx]&15) - zero) * scale
			idx++
			c++
		}
	}
}

// decodeRow2 is decodeRow4's sibling for APTQ's other width: 2-bit rows
// whose groups are byte-aligned (GroupSize a multiple of 4), four codes
// per stream byte, lowest bits first.
//
//aptq:noalloc
func (p *PackedMatrix) decodeRow2(dst []float64, r int) {
	data := p.Data[p.RowOff[r]:p.RowOff[r+1]]
	ng := p.NumGroups()
	idx, c := 0, 0
	for g := 0; g < ng; g++ {
		gp := p.Params[r*ng+g]
		scale, zero := gp.Scale, gp.Zero
		hi := c + p.GroupSize
		if hi > p.Cols {
			hi = p.Cols
		}
		for ; c+3 < hi; c += 4 {
			b := data[idx]
			idx++
			dst[c] = (float64(b&3) - zero) * scale
			dst[c+1] = (float64(b>>2&3) - zero) * scale
			dst[c+2] = (float64(b>>4&3) - zero) * scale
			dst[c+3] = (float64(b>>6) - zero) * scale
		}
		if c < hi {
			// Tail of one to three codes: only the final (partial) group of
			// a row whose Cols is not a multiple of 4; the byte's remaining
			// high bits are padding.
			for b := data[idx]; c < hi; c++ {
				dst[c] = (float64(b&3) - zero) * scale
				b >>= 2
			}
			idx++
		}
	}
}

// decodeRows decodes weight rows [lo, lo+rows) into buf (rows*Cols,
// row-major), choosing each row's decoder from its bit width and the group
// alignment: byte-aligned 4-bit and 2-bit rows — the widths APTQ's
// allocation emits — take the byte-wise decoders, everything else (3-bit
// ablation rows, 1/8/16-bit, unaligned groups) the reference
// DecodeRowInto. All paths are bit-identical.
func (p *PackedMatrix) decodeRows(buf []float64, lo, rows int) {
	for i := 0; i < rows; i++ {
		dst := buf[i*p.Cols : (i+1)*p.Cols]
		r := lo + i
		switch bits := p.bitsForRow(r); {
		case bits == 4 && p.GroupSize%2 == 0:
			p.decodeRow4(dst, r)
		case bits == 2 && p.GroupSize%4 == 0:
			p.decodeRow2(dst, r)
		default:
			p.DecodeRowInto(dst, r)
		}
	}
}
