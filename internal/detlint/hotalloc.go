package detlint

// hotalloc enforces the steady-state allocation contract (DESIGN.md §12):
// a //det:hotpath function — pool maintenance, candidate enumeration,
// plan-cache probes — must reach no allocation site: no make/new, no
// slice/map/& composite literals, no growing append to a fresh slice, no
// capturing closures, no interface boxing, in the function or anything
// it calls in-module. //det:hotalloc <reason> excuses one site (or, on a
// declaration, a whole cold function).

import (
	"fmt"
	"go/token"
)

// HotAlloc reports allocation sites reachable from //det:hotpath
// functions.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//det:hotpath functions must reach no allocation sites (escape: //det:hotalloc)",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	prog := pass.Prog
	if prog == nil {
		return fmt.Errorf("hotalloc requires an effects Program (use RunWith)")
	}
	var pkg *Package
	for _, p := range prog.Pkgs {
		if p.Types == pass.Pkg {
			pkg = p
		}
	}
	if pkg == nil {
		return nil
	}
	reported := make(map[token.Pos]bool)
	for _, n := range prog.nodes {
		if n.pkg != pkg {
			continue
		}
		_, hot := pkg.Annot.For(n.decl.Pos(), TagHotpath)
		if !hot && !docHasTag(n.decl.Doc, TagHotpath) {
			continue
		}
		sum := prog.summaries[n]
		if sum == nil {
			continue
		}
		for _, a := range sum.allocs {
			if reported[a.pos] {
				continue
			}
			reported[a.pos] = true
			pass.Reportf(a.pos,
				"allocation on hot path: %s in %s, reachable from //det:hotpath %s; restructure onto a pooled buffer or annotate the site //det:hotalloc <why>",
				a.desc, a.origin, n.name)
		}
	}
	return nil
}
