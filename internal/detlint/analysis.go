// Package detlint statically enforces the repo's determinism contract:
// per-seed runs must be bit-identical regardless of parallelism, caching,
// or process topology (DESIGN.md §8, §11). It is a suite of analyzers in
// the shape of golang.org/x/tools/go/analysis — the build container is
// offline, so the Analyzer/Pass/Diagnostic surface is reimplemented here
// on the standard library alone; if x/tools ever lands in go.mod the
// analyzers port by swapping this file for the real package.
//
// Analyzers:
//
//	maprange   — `for … range` over a map is flagged unless the body is
//	             order-insensitive by construction or the loop carries a
//	             justified //det:unordered annotation.
//	walltime   — time.Now / time.Since / time.Sleep (and friends) are
//	             forbidden outside package main and //det:wallclock sites.
//	globalrand — package-level math/rand functions are forbidden; all
//	             randomness flows through rand.New(rand.NewSource(seed)).
//	floatrange — floating-point accumulation inside a map-range loop is
//	             flagged even when the loop is annotated //det:unordered,
//	             because a float fold is never order-insensitive; the only
//	             escape is an explicit //det:floatfold annotation.
//
// The interprocedural layer (effects.go, DESIGN.md §12) adds allocation
// summaries over a CHA call graph, and two more analyzers:
//
//	hotalloc      — //det:hotpath functions must reach no allocation
//	                sites; escape with //det:hotalloc <reason>.
//	goroutinewrite — go-launched closures must not write captured
//	                variables without a sync primitive or channel
//	                handoff; no annotation escape.
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -json output.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run applies the analyzer to one type-checked package, reporting
	// findings through pass.Reportf.
	Run func(pass *Pass) error
}

// All returns the full detlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, WallTime, GlobalRand, FloatRange, HotAlloc, GoroutineWrite}
}

// A Pass provides one analyzer run with a single type-checked package,
// mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Annot indexes //det: annotations by file line (a detlint extension;
	// x/tools analyzers would re-derive this from File.Comments).
	Annot *Annotations
	// Prog is the whole-module effects program (effects.go) shared by the
	// interprocedural analyzers; Run builds a single-package one when the
	// caller has no wider view.
	Prog *Program

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: an analyzer name, a position, and a
// human-readable message.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`
}

// String formats the diagnostic the way go vet does:
// path:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies every analyzer in suite to pkg and returns the findings in
// file/line order, building a single-package effects Program. Callers
// holding several packages should build one Program and use RunWith so
// the interprocedural analyzers see cross-package calls.
func Run(pkg *Package, suite []*Analyzer) ([]Diagnostic, error) {
	return RunWith(pkg, suite, NewProgram([]*Package{pkg}))
}

// RunWith applies every analyzer in suite to pkg against a shared
// whole-module Program.
func RunWith(pkg *Package, suite []*Analyzer, prog *Program) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range suite {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Annot:     pkg.Annot,
			Prog:      prog,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}
