// Package root holds the //aptq:noalloc roots of the noalloc fixture: one
// violation per construct class, the trusted paths that must stay silent,
// both suppression shapes, and the two kinds of assembly declaration.
package root

import (
	"fmt"

	"repro/internal/analysis/testdata/src/noallocfix/dep"
)

// Formatter is a non-contract interface: dynamic calls through it are
// opaque to the checker.
type Formatter interface {
	Format(x int) int
}

// HotScale is a zero-alloc root with one violation per construct class.
//
//aptq:noalloc
func HotScale(dst []int, f Formatter, s dep.Sink, n int) int {
	buf := make([]int, n)       // want noalloc:`make allocates`
	dst = append(dst, n)        // want noalloc:`append may grow`
	msg := fmt.Sprintf("%d", n) // want noalloc:`fmt.Sprintf allocates`
	_ = dep.Dirty(n)            // want noalloc:`may allocate`
	total := dep.Clean(n)
	total += f.Format(n) // want noalloc:`dynamic call through interface method Format`
	s.Put(total)
	_ = buf
	_ = msg
	return total + len(dst)
}

// HotGrow shows the sanctioned escape hatch: amortized growth accepted
// with a reason keeps the root clean.
//
//aptq:noalloc
func HotGrow(buf []byte, b byte) []byte {
	//aptq:ignore noalloc amortized growth, pinned by the AllocsPerRun tests at steady state
	buf = append(buf, b)
	return buf
}

// HotBox boxes a concrete value into an interface. True positive.
//
//aptq:noalloc
func HotBox(x int) interface{} {
	return x // want noalloc:`boxed into interface`
}

// warm is not annotated; its allocation only matters to callers.
func warm(n int) string {
	return string(rune(n))
}

// HotCallsWarm inherits warm's allocation transitively.
//
//aptq:noalloc
func HotCallsWarm(n int) int {
	return len(warm(n)) // want noalloc:`may allocate`
}

// HotMissingReason's ignore lacks a reason: the directive is flagged and
// the allocation still reported.
//
//aptq:noalloc
func HotMissingReason(n int) []int {
	//aptq:ignore noalloc
	return make([]int, n) // want -1 noalloc:`needs a reason` noalloc:`make allocates`
}

// asmSum stands in for an assembly routine: no body for the checker to
// walk. //go:noescape tells the compiler its pointer arguments stay on the
// caller's stack, which makes it a non-allocating leaf.
//
//go:noescape
func asmSum(acc *[4]float64, x *float64, n int)

// asmSumLeaky is the same routine without the directive: every local whose
// address it is handed moves to the heap.
func asmSumLeaky(acc *[4]float64, x *float64, n int)

// HotAsm reaches both: only the declaration without //go:noescape is a
// violation.
//
//aptq:noalloc
func HotAsm(x []float64) float64 {
	var acc [4]float64
	asmSum(&acc, &x[0], len(x))
	asmSumLeaky(&acc, &x[0], len(x)) // want noalloc:`without //go:noescape`
	return acc[0] + acc[1] + acc[2] + acc[3]
}
