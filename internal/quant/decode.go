package quant

import "encoding/binary"

// The matmul kernel decodes weight rows into a k-major tile: element k of
// block row jj lives at tile[k*decodeBlockRows+jj], so one input position's
// decodeBlockRows weights are 64 contiguous bytes — what the macTile leaf
// multiplies by one x value. Each decoder below therefore writes one tile
// column, stride decodeBlockRows.

// codeValue[c] is float64(c) for the codes of the byte-wise widths: a load
// where an integer-to-float conversion costs three micro-ops per code.
var codeValue = [16]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// decodeTile4 is the decoder for the headline deployment width: 4-bit rows
// whose groups are byte-aligned (even GroupSize), i.e. exactly two codes
// per stream byte. It writes row r (ng groups) as column jj of the tile,
// 16 codes per 8-byte little-endian load while the group has them, then
// byte by byte; each value is GroupParams.Decode's expression, so the
// column is bit-identical to DecodeRowInto.
//
//aptq:noalloc
func (p *PackedMatrix) decodeTile4(tile []float64, jj, r, ng int) {
	data := p.Data[p.RowOff[r]:p.RowOff[r+1]]
	idx, c := 0, 0
	for _, gp := range p.Params[r*ng : (r+1)*ng] {
		scale, zero := gp.Scale, gp.Zero
		hi := min(c+p.GroupSize, p.Cols)
		for ; c+16 <= hi; c += 16 {
			v := binary.LittleEndian.Uint64(data[idx:])
			idx += 8
			col := tile[c*decodeBlockRows+jj:]
			_ = col[15*decodeBlockRows]
			col[0*decodeBlockRows] = (codeValue[v&15] - zero) * scale
			col[1*decodeBlockRows] = (codeValue[v>>4&15] - zero) * scale
			col[2*decodeBlockRows] = (codeValue[v>>8&15] - zero) * scale
			col[3*decodeBlockRows] = (codeValue[v>>12&15] - zero) * scale
			col[4*decodeBlockRows] = (codeValue[v>>16&15] - zero) * scale
			col[5*decodeBlockRows] = (codeValue[v>>20&15] - zero) * scale
			col[6*decodeBlockRows] = (codeValue[v>>24&15] - zero) * scale
			col[7*decodeBlockRows] = (codeValue[v>>28&15] - zero) * scale
			col[8*decodeBlockRows] = (codeValue[v>>32&15] - zero) * scale
			col[9*decodeBlockRows] = (codeValue[v>>36&15] - zero) * scale
			col[10*decodeBlockRows] = (codeValue[v>>40&15] - zero) * scale
			col[11*decodeBlockRows] = (codeValue[v>>44&15] - zero) * scale
			col[12*decodeBlockRows] = (codeValue[v>>48&15] - zero) * scale
			col[13*decodeBlockRows] = (codeValue[v>>52&15] - zero) * scale
			col[14*decodeBlockRows] = (codeValue[v>>56&15] - zero) * scale
			col[15*decodeBlockRows] = (codeValue[v>>60&15] - zero) * scale
		}
		for ; c+1 < hi; c += 2 {
			b := data[idx]
			idx++
			tile[c*decodeBlockRows+jj] = (float64(b&15) - zero) * scale
			tile[(c+1)*decodeBlockRows+jj] = (float64(b>>4) - zero) * scale
		}
		if c < hi {
			// Odd tail: only the final (partial) group of an odd-Cols row;
			// the byte's high codeValue is padding.
			tile[c*decodeBlockRows+jj] = (float64(data[idx]&15) - zero) * scale
			idx++
			c++
		}
	}
}

// decodeTile2 is decodeTile4's sibling for APTQ's other width: 2-bit rows
// whose groups are byte-aligned (GroupSize a multiple of 4), four codes
// per stream byte, lowest bits first.
//
//aptq:noalloc
func (p *PackedMatrix) decodeTile2(tile []float64, jj, r, ng int) {
	data := p.Data[p.RowOff[r]:p.RowOff[r+1]]
	idx, c := 0, 0
	for _, gp := range p.Params[r*ng : (r+1)*ng] {
		scale, zero := gp.Scale, gp.Zero
		hi := min(c+p.GroupSize, p.Cols)
		for ; c+3 < hi; c += 4 {
			b := data[idx]
			idx++
			col := tile[c*decodeBlockRows+jj : (c+3)*decodeBlockRows+jj+1]
			col[0] = (codeValue[b&3] - zero) * scale
			col[decodeBlockRows] = (codeValue[b>>2&3] - zero) * scale
			col[2*decodeBlockRows] = (codeValue[b>>4&3] - zero) * scale
			col[3*decodeBlockRows] = (codeValue[b>>6] - zero) * scale
		}
		if c < hi {
			// Tail of one to three codes: only the final (partial) group of
			// a row whose Cols is not a multiple of 4; the byte's remaining
			// high bits are padding.
			for b := data[idx]; c < hi; c++ {
				tile[c*decodeBlockRows+jj] = (codeValue[b&3] - zero) * scale
				b >>= 2
			}
			idx++
		}
	}
}

// decodeTile decodes weight rows [lo, lo+rows), rows <= decodeBlockRows,
// into the first rows columns of the k-major tile (Cols*decodeBlockRows)
// and zeroes the others, choosing each row's decoder from its bit width
// and the group alignment: byte-aligned 4-bit and 2-bit rows — the widths
// APTQ's allocation emits — take the byte-wise tile decoders, everything
// else (3-bit ablation rows, 1/8/16-bit, unaligned groups) the reference
// DecodeRowInto into the spare row (Cols), scattered into its column. All
// paths are bit-identical. ng is NumGroups(), computed once per product
// rather than once per row.
func (p *PackedMatrix) decodeTile(tile, spare []float64, lo, rows, ng int) {
	for jj := 0; jj < rows; jj++ {
		r := lo + jj
		switch bits := p.bitsForRow(r); {
		case bits == 4 && p.GroupSize%2 == 0:
			p.decodeTile4(tile, jj, r, ng)
		case bits == 2 && p.GroupSize%4 == 0:
			p.decodeTile2(tile, jj, r, ng)
		default:
			p.DecodeRowInto(spare, r)
			for k, v := range spare {
				tile[k*decodeBlockRows+jj] = v
			}
		}
	}
	if rows < decodeBlockRows {
		// A partial tile (a matrix's last few rows): the leaf still runs all
		// its lanes, so the unused ones multiply zeros, not stale weights.
		for k := 0; k < p.Cols; k++ {
			clear(tile[k*decodeBlockRows+rows : (k+1)*decodeBlockRows])
		}
	}
}
