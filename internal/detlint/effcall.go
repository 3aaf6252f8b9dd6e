package detlint

// Call resolution, provenance classification and call-site substitution
// for the effects engine (effects.go / effwalk.go).

import (
	"go/ast"
	"go/token"
	"go/types"
)

type callKind int

const (
	ckSkip callKind = iota // folded literal, callback through a func param
	ckConvert
	ckBuiltin
	ckStatic
	ckIface
	ckStdlib
	ckHavoc
)

type calleeSet struct {
	kind  callKind
	name  string // builtin name / method name
	nodes []*funcNode
	obj   *types.Func // stdlib model target
	recv  ast.Expr    // receiver expression for method calls
	desc  string      // havoc description
}

// resolve classifies one call expression. Calls through func-typed
// parameters are skipped (callback discipline: a literal's effects are
// folded where the literal is written), as are calls through locals
// bound to a literal in this function; other func-value calls are havoc.
func (w *walker) resolve(ce *ast.CallExpr) calleeSet {
	fun := unparen(ce.Fun)
	if tv, ok := w.info().Types[fun]; ok && tv.IsType() {
		return calleeSet{kind: ckConvert}
	}
	// Generic instantiation f[T](…): unwrap to the underlying ident.
	if ix, ok := fun.(*ast.IndexExpr); ok {
		if _, isSig := w.underlyingOf(fun).(*types.Signature); isSig {
			fun = unparen(ix.X)
		}
	}
	if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = unparen(ix.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch o := w.objOf(f).(type) {
		case *types.Builtin:
			return calleeSet{kind: ckBuiltin, name: o.Name()}
		case *types.Func:
			return w.funcTarget(o, nil)
		case *types.Var:
			if w.litBind[o] {
				return calleeSet{kind: ckSkip}
			}
			if pr := w.varClass(o); pr.kind == provParam {
				return calleeSet{kind: ckSkip}
			}
			return calleeSet{kind: ckHavoc,
				desc: "indirect call through func value " + f.Name}
		}
		return calleeSet{kind: ckHavoc, desc: "unresolved call"}
	case *ast.SelectorExpr:
		if sel := w.info().Selections[f]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal:
				recvT := sel.Recv()
				if types.IsInterface(recvT) {
					return calleeSet{
						kind:  ckIface,
						name:  sel.Obj().Name(),
						nodes: w.prog.chaTargets(recvT, sel.Obj().Name()),
						recv:  f.X,
					}
				}
				if fobj, ok := sel.Obj().(*types.Func); ok {
					return w.funcTarget(fobj, f.X)
				}
			case types.FieldVal:
				return calleeSet{kind: ckHavoc,
					desc: "indirect call through func-typed field " + f.Sel.Name}
			case types.MethodExpr:
				return calleeSet{kind: ckHavoc,
					desc: "call through method expression " + f.Sel.Name}
			}
		}
		switch o := w.objOf(f.Sel).(type) {
		case *types.Func: // qualified pkg.Func
			return w.funcTarget(o, nil)
		case *types.Var:
			return calleeSet{kind: ckHavoc,
				desc: "indirect call through func-typed variable " + f.Sel.Name}
		}
		return calleeSet{kind: ckHavoc, desc: "unresolved selector call"}
	case *ast.FuncLit:
		return calleeSet{kind: ckSkip} // folded inline by the walk
	}
	return calleeSet{kind: ckHavoc, desc: "indirect call"}
}

func (w *walker) funcTarget(obj *types.Func, recv ast.Expr) calleeSet {
	if n := w.prog.byObj[obj]; n != nil {
		return calleeSet{kind: ckStatic, nodes: []*funcNode{n}, recv: recv, obj: obj}
	}
	if n := w.prog.byObj[obj.Origin()]; n != nil {
		return calleeSet{kind: ckStatic, nodes: []*funcNode{n}, recv: recv, obj: obj}
	}
	return calleeSet{kind: ckStdlib, obj: obj, recv: recv}
}

func (w *walker) call(ce *ast.CallExpr) {
	if w.skipCall[ce] {
		return
	}
	r := w.resolve(ce)
	switch r.kind {
	case ckSkip:
		return
	case ckConvert:
		if w.collect {
			w.checkConvertBoxing(ce)
		}
		return
	case ckBuiltin:
		w.builtinCall(ce, r.name)
		return
	}
	if !w.collect {
		return
	}
	w.checkBoxing(ce)
	switch r.kind {
	case ckHavoc:
		w.addAlloc(ce.Pos(), r.desc+" (may allocate)")
	case ckStatic, ckIface:
		if r.kind == ckIface && len(r.nodes) == 0 {
			w.addAlloc(ce.Pos(), "unresolved interface call "+r.name+" (may allocate)")
			return
		}
		for _, callee := range r.nodes {
			w.mergeAllocs(callee)
		}
	}
}

func (w *walker) builtinCall(ce *ast.CallExpr, name string) {
	if !w.collect || len(ce.Args) == 0 {
		return
	}
	switch name {
	case "append":
		// Appending to a shared (pooled) buffer is amortized growth, not
		// a fresh allocation.
		if !w.provOf(ce.Args[0]).shared() {
			w.addAlloc(ce.Pos(), "growing append to a fresh slice")
		}
	case "make":
		w.addAlloc(ce.Pos(), "make")
	case "new":
		w.addAlloc(ce.Pos(), "new")
	}
}

// mergeAllocs merges one callee's reachable allocation sites into this
// function's summary.
func (w *walker) mergeAllocs(callee *funcNode) {
	sum := w.prog.summaries[callee]
	if sum == nil {
		return // first fixpoint round; filled in on a later round
	}
	for _, a := range sum.allocs {
		w.addAllocSite(a)
	}
}

func (w *walker) addAlloc(pos token.Pos, desc string) {
	if w.annotFor(pos, TagHotalloc) || w.declExcused(TagHotalloc) {
		return
	}
	w.addAllocSite(allocSite{pos: pos, desc: desc, origin: w.fn.name})
}

func (w *walker) addAllocSite(a allocSite) {
	if w.seenAlloc[a.pos] || len(w.allocs) >= maxAllocSites {
		return
	}
	w.seenAlloc[a.pos] = true
	w.allocs = append(w.allocs, a)
}

// locProv is the provenance of a storage location: what the memory at e
// is reachable from. A local variable itself is frame-private; memory is
// shared only through pointers, slices and maps.
func (w *walker) locProv(e ast.Expr) prov {
	e = unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := w.objOf(x).(*types.Var)
		if !ok || v.IsField() {
			return prov{kind: provNone}
		}
		if pkgScoped(v) {
			return prov{kind: provGlobal}
		}
		if !w.contains(v.Pos()) {
			return prov{kind: provCaptured, capv: v}
		}
		return prov{kind: provFresh} // local storage
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := w.objOf(id).(*types.PkgName); isPkg {
				return prov{kind: provGlobal}
			}
		}
		if sel := w.info().Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			if _, isPtr := w.underlyingOf(x.X).(*types.Pointer); isPtr {
				return w.provOf(x.X)
			}
			return w.locProv(x.X)
		}
		return prov{kind: provNone}
	case *ast.IndexExpr:
		switch w.underlyingOf(x.X).(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			return w.provOf(x.X)
		case *types.Array:
			return w.locProv(x.X)
		}
		return prov{kind: provUnknown}
	case *ast.StarExpr:
		return w.provOf(x.X)
	case *ast.CompositeLit:
		return prov{kind: provFresh} // &T{…} points at a fresh allocation
	}
	return prov{kind: provUnknown}
}

// provOf is the provenance of a value.
func (w *walker) provOf(e ast.Expr) prov {
	e = unparen(e)
	if tv, ok := w.info().Types[e]; ok && tv.Value != nil {
		return prov{kind: provNone} // constants
	}
	switch x := e.(type) {
	case *ast.Ident:
		switch o := w.objOf(x).(type) {
		case *types.Var:
			if o.IsField() {
				return prov{kind: provNone}
			}
			return w.varClass(o)
		}
		return prov{kind: provNone} // nil, funcs, types, consts
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := w.objOf(id).(*types.PkgName); isPkg {
				if _, isVar := w.objOf(x.Sel).(*types.Var); isVar {
					return prov{kind: provGlobal}
				}
				return prov{kind: provNone}
			}
		}
		if sel := w.info().Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			return w.provOf(x.X)
		}
		return prov{kind: provNone} // method value
	case *ast.IndexExpr:
		if _, isSig := w.underlyingOf(x).(*types.Signature); isSig {
			return prov{kind: provNone} // generic instantiation
		}
		return w.provOf(x.X)
	case *ast.IndexListExpr:
		return prov{kind: provNone}
	case *ast.StarExpr:
		return w.provOf(x.X)
	case *ast.SliceExpr:
		return w.provOf(x.X)
	case *ast.TypeAssertExpr:
		return w.provOf(x.X)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			return w.locProv(x.X)
		case token.ARROW:
			return prov{kind: provUnknown} // channel receive
		}
		return prov{kind: provNone}
	case *ast.CompositeLit, *ast.FuncLit, *ast.BasicLit:
		return prov{kind: provFresh}
	case *ast.BinaryExpr, *ast.KeyValueExpr:
		return prov{kind: provNone}
	case *ast.CallExpr:
		return w.callProv(x)
	}
	return prov{kind: provUnknown}
}

// callProv is the provenance of a call's result, substituted from the
// callee's return summary.
func (w *walker) callProv(ce *ast.CallExpr) prov {
	r := w.resolve(ce)
	switch r.kind {
	case ckConvert:
		if len(ce.Args) == 1 {
			return w.provOf(ce.Args[0])
		}
		return prov{kind: provNone}
	case ckBuiltin:
		switch r.name {
		case "append":
			if len(ce.Args) > 0 {
				return joinProv(prov{kind: provFresh}, w.provOf(ce.Args[0]))
			}
		case "make", "new", "min", "max":
			return prov{kind: provFresh}
		}
		return prov{kind: provNone}
	case ckStdlib:
		if r.obj.FullName() == "(*sync.Pool).Get" {
			return prov{kind: provFresh}
		}
		return prov{kind: provUnknown}
	case ckStatic, ckIface:
		out := prov{kind: provNone}
		for _, callee := range r.nodes {
			sum := w.prog.summaries[callee]
			if sum == nil {
				out = joinProv(out, prov{kind: provUnknown})
				continue
			}
			ret := sum.ret
			switch ret.kind {
			case provRecv:
				if r.recv != nil {
					ret = w.provOf(r.recv)
				} else {
					ret = prov{kind: provUnknown}
				}
			case provParam:
				if ret.param < len(ce.Args) {
					ret = w.provOf(ce.Args[ret.param])
				} else {
					ret = prov{kind: provUnknown}
				}
			case provCaptured:
				ret = prov{kind: provUnknown}
			}
			out = joinProv(out, ret)
		}
		if len(r.nodes) == 0 {
			return prov{kind: provUnknown}
		}
		return out
	}
	return prov{kind: provUnknown}
}

// litCaptures reports whether a function literal references a variable
// of an enclosing function (a heap-allocated closure).
func (w *walker) litCaptures(lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		if captures {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.objOf(id).(*types.Var)
		if !ok || v.IsField() || pkgScoped(v) {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			captures = true
		}
		return true
	})
	return captures
}

// checkBoxing flags call arguments whose conversion to an interface
// parameter heap-allocates (concrete, non-word-sized, non-constant).
func (w *walker) checkBoxing(ce *ast.CallExpr) {
	sig, ok := w.underlyingOf(ce.Fun).(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range ce.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if ce.Ellipsis.IsValid() {
				continue // s… passes the slice, no per-element boxing
			}
			if sl, ok := sig.Params().At(np - 1).Type().Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		w.boxingAt(arg, pt)
	}
}

func (w *walker) checkConvertBoxing(ce *ast.CallExpr) {
	if len(ce.Args) != 1 {
		return
	}
	w.boxingAt(ce.Args[0], w.typeOf(ce.Fun))
}

func (w *walker) boxingAt(arg ast.Expr, pt types.Type) {
	if pt == nil || !types.IsInterface(pt) {
		return
	}
	at := w.typeOf(arg)
	if at == nil || types.IsInterface(at) || wordSized(at) {
		return
	}
	if b, ok := at.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return // untyped nil and friends
	}
	if tv, ok := w.info().Types[arg]; ok && tv.Value != nil {
		return // constants: noise, and often interned
	}
	w.addAlloc(arg.Pos(), "interface boxing of "+at.String())
}
