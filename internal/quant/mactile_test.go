package quant

import "testing"

// forEachLeaf runs fn twice, as subtests: under the leaf this platform's
// init selected (the AVX2 body where the CPU has it) and with the package's
// leaf variable switched to the portable Go body, so every bit-identity
// property is proved for both without a flag, tag or environment variable
// deciding which one a test run sees. Not for parallel tests: the switch is
// a package variable.
func forEachLeaf(t *testing.T, fn func(t *testing.T)) {
	t.Run("leaf=platform", fn)
	saved := macTile
	defer func() { macTile = saved }()
	macTile = macTileGo
	t.Run("leaf=go", fn)
}
