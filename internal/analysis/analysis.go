// Package analysis is the repository's static-analysis suite: a small,
// dependency-free re-implementation of the golang.org/x/tools go/analysis
// vocabulary (Analyzer, Pass, Diagnostic, modular facts) plus the three
// checkers that turn the codebase's runtime-enforced invariants into
// build-time contracts:
//
//   - detlint flags nondeterminism sources — map-range iteration with
//     order-dependent effects, wall-clock and global-RNG reads, raw go
//     statements — inside the bit-identity packages (tensor, quant, nn,
//     model, infer, serve), whose output must be bit-identical to
//     Sequential at any slot/worker count.
//   - noalloc reads //aptq:noalloc annotations on hot-path roots
//     (Session.Step, Append, the ForwardInto impls, quant's tile
//     decoders, macTile leaves and DecodeRowInto, Sampler.Sample, the
//     scheduler tick)
//     and walks the call graph flagging allocation-forcing constructs,
//     turning the point checks of the testing.AllocsPerRun tests into
//     whole-call-graph coverage.
//   - foreachcapture inspects closures handed to parallel.For/ForEach for
//     writes to captured state that are not index-disjoint — the
//     race-by-construction patterns -race only catches when the schedule
//     cooperates.
//
// The suite runs two ways: cmd/aptq-vet speaks the `go vet -vettool=`
// unit-checker protocol (per-package, facts carried across packages in
// vetx files — see unitchecker.go), and the in-process driver loads whole
// programs for the standalone CLI mode and the analysistest fixtures (see
// load.go and driver.go). The x/tools module is deliberately not imported:
// the build must work from a bare toolchain with no module downloads.
//
// # Annotations
//
// Three comment directives carry the contracts:
//
//	//aptq:noalloc
//	    On a function or method declaration: the function is a zero-alloc
//	    hot-path root; noalloc checks it and everything it calls. On an
//	    interface method: a contract — every implementation must carry its
//	    own //aptq:noalloc, and dynamic calls through the method are
//	    trusted.
//	//aptq:wallclock
//	    On a function declaration: the function legitimately reads the
//	    wall clock (the scheduler's TTFT/ITL timestamps); detlint's
//	    time.Now/time.Since checks skip it.
//	//aptq:ignore <analyzer> <reason>
//	    On (or on the line above) an offending line: suppress that
//	    analyzer's diagnostics there. The reason is mandatory; an ignore
//	    without one is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects a single type-checked
// package through its Pass and reports diagnostics; cross-package state
// travels as opaque fact blobs (see Pass.ReadFacts / Pass.ExportFacts).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ReadFacts returns the fact blob this analyzer exported for the
	// given dependency package path, or nil when the dependency was not
	// analyzed (stdlib without vetx, or outside the load set).
	ReadFacts func(path string) []byte
	// ReadAllFacts returns every available dependency fact blob for this
	// analyzer. Under `go vet` only direct imports ship vetx files, so
	// analyzers that need transitive reach fold dependency facts into
	// their own export and consume the union here.
	ReadAllFacts func() [][]byte
	// ExportFacts records this package's fact blob for dependents.
	ExportFacts func(blob []byte)

	directives []directive
	diags      *[]Diagnostic
}

// Reportf records a diagnostic unless an //aptq:ignore directive for this
// analyzer covers pos's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.ignoredAt(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Ignored reports whether an //aptq:ignore directive for this analyzer
// covers pos's line — for analyzers (noalloc) that must honor suppression
// while summarizing code they would not otherwise report on.
func (p *Pass) Ignored(pos token.Pos) bool {
	return p.ignoredAt(p.Fset.Position(pos))
}

func (p *Pass) ignoredAt(pos token.Position) bool {
	for _, d := range p.directives {
		if d.kind != directiveIgnore || d.analyzer != p.Analyzer.Name || d.reason == "" {
			continue
		}
		if d.pos.Filename != pos.Filename {
			continue
		}
		// A directive suppresses its own line (trailing comment) and the
		// line directly below it (comment on its own line above the code).
		if d.pos.Line == pos.Line || d.pos.Line == pos.Line-1 {
			return true
		}
	}
	return false
}

// Directive kinds.
const (
	directiveIgnore    = "ignore"
	directiveNoalloc   = "noalloc"
	directiveWallclock = "wallclock"
)

// directivePrefix introduces every annotation comment.
const directivePrefix = "//aptq:"

type directive struct {
	kind     string // ignore | noalloc | wallclock
	analyzer string // ignore only: which analyzer is suppressed
	reason   string // ignore only: mandatory justification
	pos      token.Position
}

// parseDirectives scans every comment of every file for //aptq: directives.
func parseDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d, ok := parseDirective(fset, c); ok {
					out = append(out, d)
				}
			}
		}
	}
	return out
}

func parseDirective(fset *token.FileSet, c *ast.Comment) (directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return directive{}, false
	}
	d := directive{kind: fields[0], pos: fset.Position(c.Pos())}
	if d.kind == directiveIgnore {
		if len(fields) > 1 {
			d.analyzer = fields[1]
		}
		if len(fields) > 2 {
			d.reason = strings.Join(fields[2:], " ")
		}
	}
	return d, true
}

// reportMalformedIgnores emits a diagnostic for every //aptq:ignore that
// names this pass's analyzer but lacks the mandatory reason, and for every
// ignore that names no analyzer at all. Such directives never suppress
// anything, so a typo cannot silently waive a contract.
func (p *Pass) reportMalformedIgnores() {
	for _, d := range p.directives {
		if d.kind != directiveIgnore {
			continue
		}
		switch {
		case d.analyzer == "":
			*p.diags = append(*p.diags, Diagnostic{
				Analyzer: p.Analyzer.Name,
				Pos:      d.pos,
				Message:  "//aptq:ignore needs an analyzer name and a reason: //aptq:ignore <analyzer> <why>",
			})
		case d.analyzer == p.Analyzer.Name && d.reason == "":
			*p.diags = append(*p.diags, Diagnostic{
				Analyzer: p.Analyzer.Name,
				Pos:      d.pos,
				Message: fmt.Sprintf("//aptq:ignore %s needs a reason: //aptq:ignore %s <why>",
					d.analyzer, d.analyzer),
			})
		}
	}
}

// hasDirective reports whether the comment group carries the given
// //aptq: directive kind (e.g. a //aptq:noalloc line in a func doc).
func hasDirective(doc *ast.CommentGroup, kind string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, directivePrefix+kind) {
			rest := strings.TrimPrefix(c.Text, directivePrefix+kind)
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				return true
			}
		}
	}
	return false
}

// All returns the registered analyzers, in the fixed order cmd/aptq-vet
// runs them.
func All() []*Analyzer {
	return []*Analyzer{DetLint, NoAlloc, ForEachCapture}
}

// byName resolves an analyzer by its registered name.
func byName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// sortDiagnostics orders findings by file, line, column, analyzer —
// stable output for tests and CI logs.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// pathSegments splits an import path into its slash-separated segments.
func pathSegments(path string) []string { return strings.Split(path, "/") }

// hasPathSuffix reports whether the import path equals suffix or ends with
// "/"+suffix — the package-identity test the analyzers use so testdata
// fixtures (repro/internal/analysis/testdata/src/.../internal/parallel)
// match the same rules as the real tree (repro/internal/parallel).
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// enclosingFuncDecl returns the top-level function declaration whose span
// contains pos, or nil.
func enclosingFuncDecl(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}

// funcID is the stable cross-package key of a function or method: the
// *types.Func full name, e.g. "repro/internal/infer.SampleLogits" or
// "(*repro/internal/infer.Session).Step".
func funcID(fn *types.Func) string { return fn.FullName() }

// calleeFunc resolves a call expression to the static *types.Func it
// invokes, looking through parenthesization. Returns nil for builtins,
// conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isInterfaceMethodCall reports whether the call dispatches dynamically
// through an interface method value.
func isInterfaceMethodCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	_, isIface := recv.Underlying().(*types.Interface)
	return isIface
}
