package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NoAlloc turns the hot paths' zero-allocation property — pinned at a
// handful of configurations by testing.AllocsPerRun tests — into a
// whole-call-graph static contract. A function annotated //aptq:noalloc is
// a hot-path root: every allocation-forcing construct in its body, and in
// everything it (transitively) calls, is a diagnostic. The constructs:
//
//   - make / new / append (append may grow the backing array)
//   - slice and map composite literals, and &T{…} (escapes to heap)
//   - map assignment (may grow buckets)
//   - any call into package fmt
//   - string ⇄ []byte/[]rune conversions and string concatenation
//   - concrete-to-interface conversions (boxing) at calls, assignments
//     and returns
//   - capturing closures that outlive the statement, go statements
//   - dynamic calls (function values, or interface methods without a
//     //aptq:noalloc contract)
//   - calls of a body-less declaration (an assembly routine) that does
//     not carry //go:noescape: the compiler must assume its pointer
//     arguments escape, which moves the caller's locals to the heap. With
//     //go:noescape the declaration is a non-allocating leaf — assembly
//     cannot call the allocator behind the checker's back without a
//     stack frame and a CALL the reviewer of a .s file would see.
//
// Cross-package coverage comes from modular facts: each analyzed package
// exports a may-allocate summary per function, folded transitively, so a
// root in internal/serve sees through internal/infer into internal/tensor.
// When no fact exists (a dependency analyzed without facts available) a
// small allowlist of known-clean std packages applies and anything else is
// conservatively flagged.
//
// Two escape hatches keep the contract honest rather than noisy:
// //aptq:ignore noalloc <reason> accepts an intentional allocation (e.g.
// amortized scratch growth), and calls into internal/parallel plus the
// closures handed to it are exempt — the zero-alloc property is pinned at
// Workers()==1, where the substrate runs inline without spawning, and the
// dispatch cost at higher worker counts is the documented trade.
//
// On an interface method, //aptq:noalloc is a contract: dynamic calls
// through the method are trusted, and every implementation must carry its
// own //aptq:noalloc (enforced for implementations declared in any
// analyzed package).
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "enforce //aptq:noalloc zero-allocation contracts across the whole call graph",
	Run:  runNoAlloc,
}

// FuncFact is the exported per-function summary.
type FuncFact struct {
	MayAlloc bool
	Why      string // first allocation reason, with transitive call chain
	Noalloc  bool   // declared //aptq:noalloc (trusted by callers)
	Contract bool   // an annotated interface method (dynamic calls trusted)
}

// noallocStdClean lists std packages whose exported call surface the
// checker trusts not to allocate when no facts are available for them
// (pure math, atomic ops, monotonic clock reads, context queries).
var noallocStdClean = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
	"time":        true,
	"context":     true,
	// Mutex/RWMutex/Once/WaitGroup steady-state operations are
	// allocation-free; sync.Pool boxing is caught at the caller by the
	// interface-conversion check on call arguments.
	"sync": true,
	// Draws from an explicitly seeded *rand.Rand (the only form detlint
	// admits in bit-identity packages) are allocation-free; constructing
	// one (rand.New) is a setup-time operation.
	"math/rand": true,
	"errors":    false, // errors.New allocates; never trust blindly
}

// allocSite is one allocation-forcing construct.
type allocSite struct {
	pos  token.Pos
	what string
}

type callSite struct {
	pos token.Pos
	fn  *types.Func
}

// funcSummary is the per-function result of the body walk.
type funcSummary struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	noalloc bool
	direct  []allocSite // unsuppressed allocation constructs in the body
	calls   []callSite  // static call sites
	dynamic []allocSite // unresolvable dynamic calls
}

type noallocChecker struct {
	pass      *Pass
	summaries map[*types.Func]*funcSummary
	contracts map[string]bool // funcID of annotated interface methods (local + imported)
	// imported is the union of every dependency fact blob, keyed by
	// funcID. Each package re-exports this union merged with its own
	// facts, so transitive reach survives `go vet` shipping vetx files
	// for direct imports only.
	imported map[string]FuncFact
	memo     map[*types.Func]*resolved
}

type resolved struct {
	mayAlloc bool
	why      string
	visiting bool
}

func runNoAlloc(pass *Pass) error {
	nc := &noallocChecker{
		pass:      pass,
		summaries: make(map[*types.Func]*funcSummary),
		contracts: make(map[string]bool),
		imported:  mergeDepFacts(pass.ReadAllFacts()),
		memo:      make(map[*types.Func]*resolved),
	}
	nc.collectContracts()
	nc.collectSummaries()
	nc.report()
	nc.exportFacts()
	return nil
}

// ---- contracts -------------------------------------------------------

// collectContracts finds //aptq:noalloc-annotated interface methods in
// this package's syntax; imported contracts surface lazily via facts.
func (nc *noallocChecker) collectContracts() {
	for _, f := range nc.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok {
				return true
			}
			for _, field := range it.Methods.List {
				if !hasDirective(field.Doc, directiveNoalloc) && !hasDirective(field.Comment, directiveNoalloc) {
					continue
				}
				for _, name := range field.Names {
					if fn, ok := nc.pass.TypesInfo.Defs[name].(*types.Func); ok {
						nc.contracts[funcID(fn)] = true
					}
				}
			}
			return true
		})
	}
}

// isContract reports whether the interface method carries a //aptq:noalloc
// contract, locally or via an imported fact.
func (nc *noallocChecker) isContract(fn *types.Func) bool {
	if nc.contracts[funcID(fn)] {
		return true
	}
	if fact, ok := nc.imported[funcID(fn)]; ok && fact.Contract {
		return true
	}
	return false
}

// ---- summaries -------------------------------------------------------

func (nc *noallocChecker) collectSummaries() {
	for _, f := range nc.pass.Files {
		if strings.HasSuffix(nc.pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := nc.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s := &funcSummary{fn: fn, decl: fd, noalloc: hasDirective(fd.Doc, directiveNoalloc)}
			w := &allocWalker{nc: nc, sum: s}
			if fd.Body == nil {
				// An assembly routine: nothing to walk. What the checker can
				// see is whether the compiler was told its arguments stay put.
				if !hasGoNoescape(fd.Doc) {
					w.add(fd.Pos(), "body-less declaration without //go:noescape lets its pointer arguments escape to the heap")
				}
			} else {
				w.sigs = append(w.sigs, fn.Type().(*types.Signature))
				w.walkBody(fd.Body)
			}
			nc.summaries[fn] = s
		}
	}
}

// hasGoNoescape reports whether the declaration's comment group carries the
// compiler's //go:noescape directive.
func hasGoNoescape(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == "//go:noescape" {
			return true
		}
	}
	return false
}

// allocWalker scans one function body for allocation-forcing constructs.
type allocWalker struct {
	nc   *noallocChecker
	sum  *funcSummary
	sigs []*types.Signature // signature stack (function, nested literals)
	// parallelLits marks closure literals passed directly to
	// internal/parallel entry points: their closure value is exempt.
	parallelLits map[*ast.FuncLit]bool
}

func (w *allocWalker) info() *types.Info { return w.nc.pass.TypesInfo }

// add records an allocation site unless an //aptq:ignore noalloc directive
// covers its line.
func (w *allocWalker) add(pos token.Pos, what string) {
	if w.nc.pass.Ignored(pos) {
		return
	}
	w.sum.direct = append(w.sum.direct, allocSite{pos: pos, what: what})
}

func (w *allocWalker) addDynamic(pos token.Pos, what string) {
	if w.nc.pass.Ignored(pos) {
		return
	}
	w.sum.dynamic = append(w.sum.dynamic, allocSite{pos: pos, what: what})
}

func (w *allocWalker) walkBody(body *ast.BlockStmt) {
	ast.Inspect(body, w.visit)
}

func (w *allocWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		return w.visitCall(n)
	case *ast.CompositeLit:
		switch w.info().TypeOf(n).Underlying().(type) {
		case *types.Slice:
			w.add(n.Pos(), "slice literal allocates")
		case *types.Map:
			w.add(n.Pos(), "map literal allocates")
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				w.add(n.Pos(), "&composite literal escapes to the heap")
			}
		}
	case *ast.FuncLit:
		if sig, ok := w.info().TypeOf(n).(*types.Signature); ok {
			w.sigs = append(w.sigs, sig)
			defer func() { w.sigs = w.sigs[:len(w.sigs)-1] }()
		}
		if !w.parallelLits[n] && capturesLocals(w.info(), n) {
			w.add(n.Pos(), "closure captures variables and escapes")
		}
		ast.Inspect(n.Body, w.visit)
		return false
	case *ast.GoStmt:
		w.add(n.Pos(), "go statement allocates a goroutine")
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if t := w.info().TypeOf(n); t != nil && isString(t) {
				w.add(n.Pos(), "string concatenation allocates")
			}
		}
	case *ast.AssignStmt:
		w.visitAssign(n)
	case *ast.ReturnStmt:
		w.visitReturn(n)
	}
	return true
}

func (w *allocWalker) visitCall(call *ast.CallExpr) bool {
	info := w.info()
	// panic arguments are terminal; allocation there is irrelevant.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "panic":
				return false
			case "make":
				w.add(call.Pos(), "make allocates")
			case "new":
				w.add(call.Pos(), "new allocates")
			case "append":
				w.add(call.Pos(), "append may grow the backing array")
			}
			return true
		}
	}
	// Conversions: string ⇄ bytes/runes materialize, concrete→interface box.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		w.visitConversion(call, tv.Type)
		return true
	}
	if isInterfaceMethodCall(info, call) {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if mfn, ok := info.Selections[sel].Obj().(*types.Func); ok && w.nc.isContract(mfn) {
			w.checkCallBoxing(call)
			return true // trusted //aptq:noalloc interface contract
		}
		w.addDynamic(call.Pos(), fmt.Sprintf("dynamic call through interface method %s (no //aptq:noalloc contract)", callName(call)))
		return true
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		switch {
		case fn.Pkg().Path() == "fmt":
			w.add(call.Pos(), fmt.Sprintf("fmt.%s allocates", fn.Name()))
		case hasPathSuffix(fn.Pkg().Path(), "internal/parallel"):
			// The sanctioned fan-out: exempt, including its closure args
			// (inline at Workers()==1; dispatch is the multi-worker trade).
			w.markParallelLits(call)
		default:
			// An //aptq:ignore noalloc on the call line detaches the whole
			// callee subgraph — suppression composes at any depth, not just
			// inside annotated roots.
			if !w.nc.pass.Ignored(call.Pos()) {
				w.sum.calls = append(w.sum.calls, callSite{pos: call.Pos(), fn: fn})
				w.checkCallBoxing(call)
			}
		}
		return true
	}
	// A call of a function-typed value: unresolvable statically.
	if _, ok := info.TypeOf(call.Fun).Underlying().(*types.Signature); ok {
		w.addDynamic(call.Pos(), "call through a function value")
	}
	return true
}

func (w *allocWalker) markParallelLits(call *ast.CallExpr) {
	if w.parallelLits == nil {
		w.parallelLits = make(map[*ast.FuncLit]bool)
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			w.parallelLits[lit] = true
		}
	}
}

func (w *allocWalker) visitConversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src := w.info().TypeOf(call.Args[0])
	if src == nil {
		return
	}
	switch {
	case isString(target) && !isString(src):
		w.add(call.Pos(), "conversion to string allocates")
	case isByteOrRuneSlice(target) && isString(src):
		w.add(call.Pos(), "string-to-slice conversion allocates")
	case w.boxes(call.Args[0], target):
		w.add(call.Pos(), "conversion to interface boxes the value")
	}
}

// checkCallBoxing flags concrete arguments passed to interface parameters.
func (w *allocWalker) checkCallBoxing(call *ast.CallExpr) {
	sig, ok := w.info().TypeOf(call.Fun).Underlying().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	n := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice itself
			}
			pt = sig.Params().At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = sig.Params().At(i).Type()
		}
		if w.boxes(arg, pt) {
			w.add(arg.Pos(), "interface conversion at call argument boxes the value")
		}
	}
}

func (w *allocWalker) visitAssign(as *ast.AssignStmt) {
	info := w.info()
	for _, lhs := range as.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := info.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					w.add(as.Pos(), "map assignment may grow buckets")
				}
			}
		}
	}
	if as.Tok != token.ASSIGN {
		return // := takes the rhs type; no interface target possible
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break // x, y = f() — tuple boxing is out of scope
		}
		if w.boxes(as.Rhs[i], info.TypeOf(lhs)) {
			w.add(as.Rhs[i].Pos(), "assignment to interface boxes the value")
		}
	}
}

func (w *allocWalker) visitReturn(ret *ast.ReturnStmt) {
	sig := w.sigs[len(w.sigs)-1]
	if sig.Results() == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		if w.boxes(res, sig.Results().At(i).Type()) {
			w.add(res.Pos(), "return value boxed into interface")
		}
	}
}

// boxes reports whether assigning expr to a target of type t converts a
// concrete value into an interface (a potential heap allocation).
func (w *allocWalker) boxes(expr ast.Expr, t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := w.info().Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	if types.IsInterface(tv.Type) {
		return false
	}
	// Pointer-shaped values (pointers, channels, maps, funcs, unsafe
	// pointers) are stored in the interface word directly — no allocation.
	switch u := tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// capturesLocals reports whether the closure references variables declared
// outside it but inside the enclosing function (package-level references
// are direct, not captured).
func capturesLocals(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.Parent() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "(call)"
}

// ---- resolution ------------------------------------------------------

// mergeDepFacts folds every dependency blob into one funcID-keyed map.
func mergeDepFacts(blobs [][]byte) map[string]FuncFact {
	merged := make(map[string]FuncFact)
	for _, blob := range blobs {
		for key, fact := range decodeFacts(blob) {
			merged[key] = fact
		}
	}
	return merged
}

// mayAlloc resolves whether calling fn may allocate, folding local
// summaries, imported facts and the conservative fallbacks.
func (nc *noallocChecker) mayAlloc(fn *types.Func) (bool, string) {
	if r, ok := nc.memo[fn]; ok {
		if r.visiting {
			return false, "" // optimistic on recursion cycles
		}
		return r.mayAlloc, r.why
	}
	r := &resolved{visiting: true}
	nc.memo[fn] = r
	defer func() { r.visiting = false }()

	if sum, ok := nc.summaries[fn]; ok {
		if sum.noalloc {
			// Trusted: the annotated callee carries its own obligations.
			r.mayAlloc = false
			return false, ""
		}
		r.mayAlloc, r.why = nc.summaryAllocs(sum)
		return r.mayAlloc, r.why
	}
	if fn.Pkg() == nil || fn.Pkg() == nc.pass.Pkg {
		// A local function without a summary: declared in a _test.go file
		// (never summarized) or synthesized by the type checker.
		r.mayAlloc = false
		return false, ""
	}
	path := fn.Pkg().Path()
	// The hand-audited allowlist outranks derived facts: summarizing std
	// internals conservatively (dynamic calls, cold init paths) would
	// otherwise flag steady-state-clean surfaces like (*rand.Rand).Float64
	// or (*sync.Mutex).Lock.
	if hasPathSuffix(path, "internal/parallel") || noallocStdClean[path] {
		r.mayAlloc = false
		return false, ""
	}
	if fact, ok := nc.imported[funcID(fn)]; ok {
		if fact.Noalloc {
			r.mayAlloc = false
			return false, ""
		}
		r.mayAlloc, r.why = fact.MayAlloc, fact.Why
		return r.mayAlloc, r.why
	}
	if path == "fmt" {
		r.mayAlloc, r.why = true, "fmt allocates"
	} else {
		r.mayAlloc, r.why = true, fmt.Sprintf("no allocation facts for %s", path)
	}
	return r.mayAlloc, r.why
}

// summaryAllocs folds a summary's direct sites, dynamic calls and callee
// resolutions into one may-allocate verdict.
func (nc *noallocChecker) summaryAllocs(sum *funcSummary) (bool, string) {
	if len(sum.direct) > 0 {
		p := nc.pass.Fset.Position(sum.direct[0].pos)
		return true, fmt.Sprintf("%s at %s:%d", sum.direct[0].what, shortFile(p.Filename), p.Line)
	}
	if len(sum.dynamic) > 0 {
		p := nc.pass.Fset.Position(sum.dynamic[0].pos)
		return true, fmt.Sprintf("%s at %s:%d", sum.dynamic[0].what, shortFile(p.Filename), p.Line)
	}
	for _, c := range sum.calls {
		if alloc, why := nc.mayAlloc(c.fn); alloc {
			return true, chainWhy(c.fn, why)
		}
	}
	return false, ""
}

// chainWhy prefixes a callee's reason with its name, keeping chains short.
func chainWhy(fn *types.Func, why string) string {
	s := fmt.Sprintf("calls %s (%s)", fn.FullName(), why)
	if len(s) > 220 {
		s = s[:217] + "..."
	}
	return s
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// ---- reporting -------------------------------------------------------

func (nc *noallocChecker) report() {
	// Deterministic order over the annotated roots.
	var roots []*funcSummary
	for _, sum := range nc.summaries {
		if sum.noalloc {
			roots = append(roots, sum)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].decl.Pos() < roots[j].decl.Pos() })
	for _, sum := range roots {
		name := sum.fn.Name()
		for _, site := range sum.direct {
			nc.pass.Reportf(site.pos, "%s in //aptq:noalloc function %s", site.what, name)
		}
		for _, site := range sum.dynamic {
			nc.pass.Reportf(site.pos, "%s in //aptq:noalloc function %s", site.what, name)
		}
		for _, c := range sum.calls {
			if alloc, why := nc.mayAlloc(c.fn); alloc {
				nc.pass.Reportf(c.pos, "call from //aptq:noalloc function %s may allocate: %s", name, chainWhy(c.fn, why))
			}
		}
	}
	nc.reportUnannotatedImpls()
}

// reportUnannotatedImpls enforces the interface half of the contract:
// every locally-declared implementation of a //aptq:noalloc interface
// method must itself be annotated.
func (nc *noallocChecker) reportUnannotatedImpls() {
	contracts := nc.visibleContracts()
	if len(contracts) == 0 {
		return
	}
	for _, sum := range nc.summaries {
		if sum.noalloc || sum.decl.Recv == nil {
			continue
		}
		sig := sum.fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		recv := sig.Recv().Type()
		for _, c := range contracts {
			if c.method != sum.fn.Name() {
				continue
			}
			if types.Implements(recv, c.iface) || implementsPtr(recv, c.iface) {
				nc.pass.Reportf(sum.decl.Pos(),
					"%s implements %s.%s, a //aptq:noalloc contract, but is not annotated //aptq:noalloc",
					sum.fn.Name(), c.ifaceName, c.method)
			}
		}
	}
}

func implementsPtr(recv types.Type, iface *types.Interface) bool {
	if _, isPtr := recv.(*types.Pointer); isPtr {
		return false
	}
	return types.Implements(types.NewPointer(recv), iface)
}

type contractIface struct {
	iface     *types.Interface
	ifaceName string
	method    string
}

// visibleContracts materializes the annotated interface methods this
// package can see: its own, plus those named in imported facts.
func (nc *noallocChecker) visibleContracts() []contractIface {
	keys := make(map[string]bool, len(nc.contracts))
	for k := range nc.contracts {
		keys[k] = true
	}
	for k, fact := range nc.imported {
		if fact.Contract {
			keys[k] = true
		}
	}
	var out []contractIface
	for key := range keys {
		if c, ok := nc.resolveContractKey(key); ok {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].ifaceName+out[i].method < out[j].ifaceName+out[j].method
	})
	return out
}

// resolveContractKey turns a fact key "(pkg/path.Iface).Method" back into
// the interface type, looking in this package and its direct imports.
func (nc *noallocChecker) resolveContractKey(key string) (contractIface, bool) {
	if !strings.HasPrefix(key, "(") {
		return contractIface{}, false
	}
	close := strings.IndexByte(key, ')')
	if close < 0 || close+2 > len(key) {
		return contractIface{}, false
	}
	qualified := key[1:close] // pkg/path.Iface
	method := key[close+2:]   // skip ")."
	dot := strings.LastIndexByte(qualified, '.')
	if dot < 0 {
		return contractIface{}, false
	}
	pkgPath, typeName := qualified[:dot], qualified[dot+1:]
	var scope *types.Scope
	if pkgPath == nc.pass.Pkg.Path() {
		scope = nc.pass.Pkg.Scope()
	} else {
		for _, imp := range nc.pass.Pkg.Imports() {
			if imp.Path() == pkgPath {
				scope = imp.Scope()
				break
			}
		}
	}
	if scope == nil {
		return contractIface{}, false
	}
	obj := scope.Lookup(typeName)
	if obj == nil {
		return contractIface{}, false
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return contractIface{}, false
	}
	return contractIface{iface: iface, ifaceName: typeName, method: method}, true
}

// ---- facts -----------------------------------------------------------

func (nc *noallocChecker) exportFacts() {
	// Re-export the dependency union: dependents only receive vetx files
	// for their direct imports, so transitive facts ride along here.
	facts := make(map[string]FuncFact, len(nc.imported)+len(nc.summaries)+len(nc.contracts))
	for key, fact := range nc.imported {
		facts[key] = fact
	}
	for fn, sum := range nc.summaries {
		alloc, why := nc.mayAlloc(fn)
		facts[funcID(fn)] = FuncFact{MayAlloc: alloc, Why: why, Noalloc: sum.noalloc}
	}
	for key := range nc.contracts {
		f := facts[key]
		f.Contract = true
		f.Noalloc = true
		facts[key] = f
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(facts); err == nil {
		nc.pass.ExportFacts(buf.Bytes())
	}
}

func decodeFacts(blob []byte) map[string]FuncFact {
	if blob == nil {
		return nil
	}
	var facts map[string]FuncFact
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&facts); err != nil {
		return nil
	}
	return facts
}
