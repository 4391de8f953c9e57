package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"wfsim/internal/lint/analysis"
)

// SimBlock forbids real concurrency and real blocking inside simulated
// step bodies. The DES engine runs everything on the one goroutine that
// calls Engine.Run: activity steps, event callbacks and dispatch-gate
// grant callbacks are called inline by the dispatch loop. A step body
// that performs a raw channel operation, takes a sync lock, sleeps on the
// host clock, or does I/O does not "run concurrently" — it blocks the one
// thread driving the entire simulation, deadlocking or stalling every
// other simulated activity. Inside a step body the only legitimate ways
// to wait are the engine's primitives (Activity.Wait, Server.Acquire,
// Link.Transfer), which park the activity in virtual time.
//
// Roots are discovered, not declared: the final argument of every call in
// stepSinks — the owner bound into an Activity by Init (its Step method),
// a callback passed to Engine.Schedule, a grant callback passed to
// ServiceLine.SetOnGrant — is a step body, whether it is a function
// literal, a named function, a method value, a variable/field traced to
// the function assigned into it (the bound-once requestFn pattern), or an
// owner whose methods implement the sink's interface parameter.
// Everything reachable from a step body over static calls (plus enclosed
// function literals) is checked. Additional bodies can be declared with a
// //wfsimlint:stepbody doc-comment annotation.
//
// The package that defines the engine itself is exempt: the substrate
// legitimately manipulates machinery that step bodies must never touch.
// Test files are exempt as usual, and a deliberate exception can be
// annotated //wfsimlint:allow simblock.
var SimBlock = &analysis.Analyzer{
	Name:      "simblock",
	Doc:       "forbids raw channel ops, sync primitives, host sleeps, and I/O inside simulated step bodies run by the engine's dispatch loop",
	RunModule: runSimBlock,
}

// stepSinks are the engine calls whose final function argument the
// dispatch loop later runs inline, by receiver type name and method.
var stepSinks = []struct{ recv, method string }{
	{"Activity", "Init"},
	{"Engine", "Schedule"},
	{"ServiceLine", "SetOnGrant"},
}

func runSimBlock(pass *analysis.ModulePass) error {
	assigned := assignedFuncs(pass)
	roots, exempt := stepBodyRoots(pass, assigned)
	checked := analysis.Reachable(roots)
	for _, n := range pass.Graph.Nodes {
		if !checked[n] || exempt[n.Pkg] || pass.IsTestFile(n.Pos()) {
			continue
		}
		checkStepBody(pass, n)
	}
	return nil
}

// isStepSink reports whether fn is one of the stepSinks methods.
func isStepSink(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	name := namedTypeName(recv.Type())
	for _, s := range stepSinks {
		if fn.Name() == s.method && name == s.recv {
			return true
		}
	}
	return false
}

// stepBodyRoots finds step-body functions (final arguments of stepSinks
// calls, plus //wfsimlint:stepbody annotations) and the set of
// sink-defining packages, which are exempt substrate.
func stepBodyRoots(pass *analysis.ModulePass, assigned map[string][]*analysis.FuncNode) (roots []*analysis.FuncNode, exempt map[*analysis.ModulePackage]bool) {
	exempt = make(map[*analysis.ModulePackage]bool)
	for _, n := range pass.Graph.Nodes {
		if n.Decl != nil && analysis.FuncAnnotation(n.Decl, "stepbody") {
			roots = append(roots, n)
		}
		info := n.Pkg.Info
		analysis.InspectOwn(n, func(nd ast.Node) {
			call, ok := nd.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return
			}
			fn := analysis.StaticCallee(info, call)
			if fn == nil || !isStepSink(fn) {
				return
			}
			// The calling package is a client; the engine's own package
			// is substrate.
			if enginePkg := pass.Graph.NodeOf(fn); enginePkg != nil {
				exempt[enginePkg.Pkg] = true
			}
			bodyArg := call.Args[len(call.Args)-1]
			params := fn.Type().(*types.Signature).Params()
			if iface, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Interface); ok {
				// An owner bound as an interface (Activity.Init's
				// Stepper): its implementations of the interface's
				// methods are the step bodies.
				roots = append(roots, ownerMethods(pass, info.TypeOf(bodyArg), iface)...)
				return
			}
			roots = append(roots, resolveFuncExpr(pass, info, bodyArg, assigned)...)
		})
	}
	return roots, exempt
}

// ownerMethods returns the methods through which owner type t implements
// iface, for a value of t passed where iface is expected.
func ownerMethods(pass *analysis.ModulePass, t types.Type, iface *types.Interface) []*analysis.FuncNode {
	var out []*analysis.FuncNode
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			if n := pass.Graph.NodeOf(fn); n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}

// namedTypeName returns the name of t's (pointer-dereferenced) named
// type, or "".
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// assignedFuncs maps every variable or struct field (by declaration
// position, stable across duplicate type-checks) to the function nodes
// assigned into it anywhere in the module. This is what lets the rule
// see through the bound-once pattern:
//
//	r.requestFn = clu.Master.Request   // setup
//	r.eng.Schedule(0, r.requestFn)
func assignedFuncs(pass *analysis.ModulePass) map[string][]*analysis.FuncNode {
	assigned := make(map[string][]*analysis.FuncNode)
	record := func(info *types.Info, lhs, rhs ast.Expr) {
		target := lvalueObj(info, lhs)
		if target == nil {
			return
		}
		fns := directFuncExpr(pass, info, rhs)
		if len(fns) == 0 {
			return
		}
		key := pass.Fset.Position(target.Pos()).String()
		assigned[key] = append(assigned[key], fns...)
	}
	for _, n := range pass.Graph.Nodes {
		info := n.Pkg.Info
		analysis.InspectOwn(n, func(nd ast.Node) {
			switch nd := nd.(type) {
			case *ast.AssignStmt:
				for i := range nd.Lhs {
					if i < len(nd.Rhs) {
						record(info, nd.Lhs[i], nd.Rhs[i])
					}
				}
			case *ast.GenDecl:
				if nd.Tok != token.VAR {
					return
				}
				for _, spec := range nd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							if i < len(vs.Values) {
								record(info, name, vs.Values[i])
							}
						}
					}
				}
			case *ast.CompositeLit:
				for _, el := range nd.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						record(info, kv.Key, kv.Value)
					}
				}
			}
		})
	}
	return assigned
}

// lvalueObj resolves an assignment target to its variable or field
// object.
func lvalueObj(info *types.Info, lhs ast.Expr) types.Object {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := objOf(info, l); obj != nil {
			return obj
		}
		// Composite-literal keys are fields, found in Uses.
		return info.Uses[l]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return objOf(info, l.Sel)
	}
	return nil
}

// directFuncExpr resolves an expression directly denoting a function:
// a literal, a named function, or a method value.
func directFuncExpr(pass *analysis.ModulePass, info *types.Info, expr ast.Expr) []*analysis.FuncNode {
	switch ex := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		if n := pass.Graph.ByLit[ex]; n != nil {
			return []*analysis.FuncNode{n}
		}
	case *ast.Ident:
		if fn, ok := info.Uses[ex].(*types.Func); ok {
			if n := pass.Graph.NodeOf(fn); n != nil {
				return []*analysis.FuncNode{n}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[ex]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if n := pass.Graph.NodeOf(fn); n != nil {
					return []*analysis.FuncNode{n}
				}
			}
		}
		if fn, ok := info.Uses[ex.Sel].(*types.Func); ok {
			if n := pass.Graph.NodeOf(fn); n != nil {
				return []*analysis.FuncNode{n}
			}
		}
	}
	return nil
}

// resolveFuncExpr resolves a step-body argument: directly, or —
// for a variable or field — through every function assigned into it.
func resolveFuncExpr(pass *analysis.ModulePass, info *types.Info, expr ast.Expr, assigned map[string][]*analysis.FuncNode) []*analysis.FuncNode {
	if fns := directFuncExpr(pass, info, expr); len(fns) > 0 {
		return fns
	}
	if obj := lvalueObj(info, expr); obj != nil {
		return assigned[pass.Fset.Position(obj.Pos()).String()]
	}
	return nil
}

// checkStepBody flags blocking constructs inside one checked function.
func checkStepBody(pass *analysis.ModulePass, n *analysis.FuncNode) {
	info := n.Pkg.Info
	analysis.InspectOwn(n, func(nd ast.Node) {
		switch nd := nd.(type) {
		case *ast.SendStmt:
			pass.Reportf(nd.Arrow, "channel send inside a simulated step body blocks the engine's dispatch thread; sequence on virtual time with the engine's primitives instead")
		case *ast.UnaryExpr:
			if nd.Op == token.ARROW {
				pass.Reportf(nd.OpPos, "channel receive inside a simulated step body blocks the engine's dispatch thread; wait on virtual time with the engine's primitives instead")
			}
		case *ast.SelectStmt:
			pass.Reportf(nd.Select, "select inside a simulated step body blocks the engine's dispatch thread; activities wait via the engine, not via channels")
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(nd.X).Underlying().(*types.Chan); ok {
				pass.Reportf(nd.For, "ranging over a channel inside a simulated step body blocks the engine's dispatch thread")
			}
		case *ast.GoStmt:
			pass.Reportf(nd.Go, "go statement inside a simulated step body spawns a real goroutine outside the engine's control; start simulated work with Engine.Start")
		case *ast.CallExpr:
			checkStepCall(pass, info, nd)
		}
	})
}

func checkStepCall(pass *analysis.ModulePass, info *types.Info, call *ast.CallExpr) {
	// Package-level calls: host sleeps and I/O.
	if path, name, ok := pkgFunc(info, call); ok {
		switch {
		case path == "time" && (name == "Sleep" || name == "After" || name == "Tick" || name == "NewTimer" || name == "NewTicker" || name == "AfterFunc"):
			pass.Reportf(call.Pos(), "time.%s inside a simulated step body waits on the host clock, stalling the whole simulation; use Activity.Wait (virtual seconds) instead", name)
		case path == "os" || path == "net" || path == "net/http" || path == "io" || path == "bufio":
			pass.Reportf(call.Pos(), "%s.%s performs real I/O inside a simulated step body; step bodies must stay pure compute over engine state", pkgBase(path), name)
		case path == "fmt" && (name == "Print" || name == "Printf" || name == "Println" || name == "Fprint" || name == "Fprintf" || name == "Fprintln"):
			pass.Reportf(call.Pos(), "fmt.%s writes to a real stream inside a simulated step body; collect results in engine state and report after Run returns", name)
		}
		return
	}
	// Method calls on sync primitives.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := info.Selections[sel]
	if !ok {
		return
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return
	}
	switch fn.Name() {
	case "Lock", "RLock", "Wait":
		pass.Reportf(call.Pos(), "sync %s.%s inside a simulated step body can block the engine's dispatch thread; simulated activities are already mutually exclusive — drop the lock or move the contention into engine state", namedTypeName(s.Recv()), fn.Name())
	}
}

// pkgBase returns the last path element of an import path.
func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
