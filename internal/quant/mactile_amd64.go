package quant

import "repro/internal/tensor"

func init() {
	if cpuHasAVX2() {
		macTile = macTileAVX2
	}
}

// cpuHasAVX2 reports whether AVX2 instructions may be executed: the CPU
// implements AVX and AVX2 and the OS saves the ymm state (OSXSAVE set, XCR0
// bits 1 and 2). golang.org/x/sys/cpu answers the same question; this
// module has no dependencies, so it asks CPUID itself.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// macTileAVX2 is macTile on the assembly bodies: four rows of x at a time
// share each tile load, the remainder go row by row. The wrapper keeps the
// bounds checks the Go body has — x rows, tile and output window are
// re-sliced to their exact lengths before a pointer is taken — so a shape
// bug panics here instead of reading past a slice in assembly, and the
// assembly stores only into acc.
//
//aptq:noalloc
func macTileAVX2(out, x *tensor.Mat, j0, width int, tile []float64) {
	cols := x.Cols // >= 1: both constructors reject less, and the indexing below panics on 0
	t := &tile[:cols*decodeBlockRows][0]
	var acc [4 * decodeBlockRows]float64
	i := 0
	for ; i+4 <= x.Rows; i += 4 {
		xs := x.Data[i*cols : (i+4)*cols]
		macTile4AVX2(&acc, &xs[0], t, cols)
		for r := 0; r < 4; r++ {
			copy(out.Row(i + r)[j0:j0+width], acc[r*decodeBlockRows:(r+1)*decodeBlockRows])
		}
	}
	for ; i < x.Rows; i++ {
		macTile1AVX2((*[decodeBlockRows]float64)(acc[:]), &x.Row(i)[0], t, cols)
		copy(out.Row(i)[j0:j0+width], acc[:decodeBlockRows])
	}
}

//go:noescape
func macTile1AVX2(acc *[decodeBlockRows]float64, x, tile *float64, cols int)

//go:noescape
func macTile4AVX2(acc *[4 * decodeBlockRows]float64, x, tile *float64, cols int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
