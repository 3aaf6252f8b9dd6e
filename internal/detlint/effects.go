package detlint

// The interprocedural layer behind hotalloc (DESIGN.md §12): a CHA-style
// call graph over the typed AST, per-function allocation summaries, and a
// fixpoint that propagates allocation sites across calls. Built on the
// standard library alone, same constraint as the rest of the suite.
//
// Each summary is a set of reachable allocation sites plus the provenance
// of the function's return value — what the returned memory is reachable
// from:
//
//	global    — a package-level variable
//	recv      — the method receiver
//	param(i)  — the i-th parameter
//	captured  — a variable captured from an enclosing function
//	unknown   — memory the analysis cannot bound (indirect calls,
//	            channel receives, out-of-module results)
//
// Provenance decides whether an append grows a shared (pooled) buffer or
// allocates a fresh slice. At call sites, callee return provenance is
// re-based onto the caller's arguments. Interface method calls resolve by
// CHA to every in-module implementation; zero implementations (or a call
// through a func-typed field/value) count as a possible allocation.
// Function literals are folded into their enclosing function — captured
// locals resolve against the enclosing environment — except literals
// launched by `go`, whose bodies run elsewhere.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// A Program is the whole-module view behind the interprocedural
// analyzers: call graph nodes, CHA indexes and the solved per-function
// summaries. Build one per lint run with NewProgram and share it across
// packages via RunWith.
type Program struct {
	Pkgs []*Package

	nodes     []*funcNode
	byObj     map[*types.Func]*funcNode
	named     []*types.TypeName
	summaries map[*funcNode]*summary
	chaCache  map[string][]*funcNode
}

// A funcNode is one call-graph node: a declared function or method.
type funcNode struct {
	pkg     *Package
	obj     *types.Func
	decl    *ast.FuncDecl
	body    *ast.BlockStmt
	name    string
	lo, hi  token.Pos
	recv    *types.Var
	params  []*types.Var
	results []*types.Var
}

type provKind int

const (
	provNone provKind = iota
	provFresh
	provRecv
	provParam
	provGlobal
	provCaptured
	provUnknown
)

// prov is the provenance of a value or storage location: which root the
// memory it refers to is reachable from.
type prov struct {
	kind  provKind
	param int        // valid when kind == provParam
	capv  *types.Var // valid when kind == provCaptured
}

func (p prov) shared() bool {
	switch p.kind {
	case provNone, provFresh:
		return false
	}
	return true
}

// joinProv is the lattice join: none is bottom, fresh stays below every
// shared class, and two distinct shared classes collapse to unknown.
func joinProv(a, b prov) prov {
	if a == b {
		return a
	}
	if a.kind == provNone {
		return b
	}
	if b.kind == provNone {
		return a
	}
	if a.kind == provFresh {
		return b
	}
	if b.kind == provFresh {
		return a
	}
	return prov{kind: provUnknown}
}

// An allocSite is one allocation a function (or anything it calls) may
// perform; //det:hotalloc-excused sites are dropped at the origin.
type allocSite struct {
	pos    token.Pos
	desc   string
	origin string
}

const maxAllocSites = 32

// summary is the solved per-function fact: reachable allocation sites
// and return-value provenance.
type summary struct {
	allocs []allocSite
	ret    prov
}

func (s *summary) fingerprint() string {
	var b strings.Builder
	for _, a := range s.allocs {
		fmt.Fprintf(&b, "%d;", a.pos)
	}
	fmt.Fprintf(&b, "|%d/%d", s.ret.kind, s.ret.param)
	return b.String()
}

// NewProgram builds the call graph over pkgs and solves the summaries to
// a fixpoint. The packages must share one
// FileSet (the Loader guarantees this; the golden harness passes one
// package).
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:      pkgs,
		byObj:     make(map[*types.Func]*funcNode),
		summaries: make(map[*funcNode]*summary),
		chaCache:  make(map[string][]*funcNode),
	}
	for _, pkg := range pkgs {
		p.indexPackage(pkg)
	}
	p.solve()
	return p
}

func (p *Program) indexPackage(pkg *Package) {
	// Named non-interface types, for CHA. Scope.Names is sorted, so the
	// CHA target order (and therefore diagnostic order) is deterministic.
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			if _, isIface := named.Underlying().(*types.Interface); !isIface {
				p.named = append(p.named, tn)
			}
		}
	}
	// Call-graph nodes: every declared function with a body.
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &funcNode{
				pkg:  pkg,
				obj:  obj,
				decl: fd,
				body: fd.Body,
				name: declDisplayName(pkg, fd),
				lo:   fd.Pos(),
				hi:   fd.End(),
			}
			sig := obj.Type().(*types.Signature)
			n.recv = sig.Recv()
			for i := 0; i < sig.Params().Len(); i++ {
				n.params = append(n.params, sig.Params().At(i))
			}
			for i := 0; i < sig.Results().Len(); i++ {
				n.results = append(n.results, sig.Results().At(i))
			}
			p.nodes = append(p.nodes, n)
			p.byObj[obj] = n
		}
	}
}

func declDisplayName(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if se, ok := t.(*ast.StarExpr); ok {
			t = se.X
		}
		if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = ix.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return pkg.Types.Name() + ".(" + id.Name + ")." + fd.Name.Name
		}
	}
	return pkg.Types.Name() + "." + fd.Name.Name
}

// solve runs chaotic iteration to the fixpoint: alloc sets only grow and positions are finite, so this terminates; the round
// cap is a backstop, not a tuning knob.
func (p *Program) solve() {
	for round := 0; round < 50; round++ {
		changed := false
		for _, n := range p.nodes {
			s := p.analyzeNode(n)
			old := p.summaries[n]
			if old == nil || old.fingerprint() != s.fingerprint() {
				p.summaries[n] = s
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// chaTargets resolves an interface method call to every in-module
// concrete implementation (Class Hierarchy Analysis). The open-world
// caveat — implementations outside the analyzed packages — is documented
// in DESIGN.md §12.
func (p *Program) chaTargets(iface types.Type, method string) []*funcNode {
	key := iface.String() + "." + method
	if out, ok := p.chaCache[key]; ok {
		return out
	}
	ifc, ok := iface.Underlying().(*types.Interface)
	if !ok {
		p.chaCache[key] = nil
		return nil
	}
	out := []*funcNode{}
	for _, tn := range p.named {
		T := tn.Type()
		PT := types.NewPointer(T)
		if !types.Implements(T, ifc) && !types.Implements(PT, ifc) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(PT, true, tn.Pkg(), method)
		fobj, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := p.byObj[fobj]; n != nil {
			out = append(out, n)
		} else if n := p.byObj[fobj.Origin()]; n != nil {
			out = append(out, n)
		}
	}
	p.chaCache[key] = out
	return out
}

// pointerLike reports whether values of t carry a reference to other
// memory, so a copy keeps the provenance of what it was copied from.
func pointerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// wordSized reports whether boxing a value of t into an interface needs
// no heap allocation (the value fits the interface data word).
func wordSized(t types.Type) bool {
	if t == nil {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

func pkgScoped(v *types.Var) bool {
	sc := v.Parent()
	return sc != nil && sc.Parent() == types.Universe
}
