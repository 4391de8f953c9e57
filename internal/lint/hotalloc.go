package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"wfsim/internal/lint/analysis"
)

// HotAlloc flags heap-allocating constructs in functions reachable from
// the steady-state simulate path — the set of functions the differential
// alloc guard (TestSimAllocBudget) protects dynamically. The engine's
// scaling story (DESIGN.md §2/§9/§12) rests on the steady state being
// allocation-free: ~1 marginal alloc per simulated task at the
// million-task scale. The guard catches a regression after the fact, in
// aggregate; this rule names the exact line at review time.
//
// Roots (the steady-state entry points, mirrored from the alloc guard's
// coverage): the sim event loop (Engine.Run), the runtime dispatch path
// (grantNext, taskRun.Step, enqueue, completeTask), every scheduler's
// Place/Next/NextFor, and the streaming metrics sink
// (Aggregates.Observe). Additional roots can be declared by annotating a
// function's doc comment with //wfsimlint:hotpath. Reachability is
// computed over the module call graph, conservatively including function
// literals defined inside hot functions (event callbacks run on the hot
// path even though the graph cannot see their invocation).
//
// Flagged constructs, and why:
//
//   - append whose backing slice is not visibly recycled: growth
//     reallocates. The scratch idiom — `s = s[:0]` in the same function,
//     or a capacity-sized make — is recognized and exempt, matching the
//     zero-alloc Place pattern in internal/sched.
//   - map and slice composite literals, and make of maps/slices/chans:
//     always heap material in an escaping position.
//   - closures capturing variables: the capture escapes.
//   - fmt.Sprintf and friends: allocate their result (and box their
//     arguments).
//   - interface boxing: passing or returning a concrete non-pointer
//     value where an interface is expected allocates unless the escape
//     analysis gets lucky.
//
// Error paths and one-time setup inside hot functions are legitimate
// exceptions: annotate them //wfsimlint:allow hotalloc, or record them
// in the committed baseline (lint.baseline) where they stay visible but
// non-fatal.
var HotAlloc = &analysis.Analyzer{
	Name:      "hotalloc",
	Doc:       "flags heap-allocating constructs in functions reachable from the steady-state simulate path",
	RunModule: runHotAlloc,
}

// hotRootSpec matches steady-state entry points by package path,
// receiver type name (empty: any), and function name.
type hotRootSpec struct {
	pkg, recv, name string
}

var hotRoots = []hotRootSpec{
	{"wfsim/internal/sim", "Engine", "Run"},
	{"wfsim/internal/runtime", "simRun", "grantNext"},
	{"wfsim/internal/runtime", "taskRun", "Step"},
	{"wfsim/internal/runtime", "simRun", "enqueue"},
	{"wfsim/internal/runtime", "simRun", "completeTask"},
	{"wfsim/internal/sched", "", "Place"},
	{"wfsim/internal/sched", "", "Next"},
	{"wfsim/internal/sched", "", "NextFor"},
	{"wfsim/internal/metrics", "Aggregates", "Observe"},
}

func runHotAlloc(pass *analysis.ModulePass) error {
	roots := hotPathRoots(pass)
	hot := analysis.Reachable(roots)
	witness := rootWitness(roots)
	for _, n := range pass.Graph.Nodes {
		if !hot[n] || pass.IsTestFile(n.Pos()) {
			continue
		}
		checkHotFunc(pass, n, witness[n])
	}
	return nil
}

// hotPathRoots collects the steady-state entry points: the built-in spec
// list plus //wfsimlint:hotpath-annotated functions. Test files never
// contribute roots.
func hotPathRoots(pass *analysis.ModulePass) []*analysis.FuncNode {
	var roots []*analysis.FuncNode
	for _, n := range pass.Graph.Nodes {
		if n.Decl == nil || pass.IsTestFile(n.Pos()) {
			continue
		}
		if analysis.FuncAnnotation(n.Decl, "hotpath") || matchesHotRoot(n) {
			roots = append(roots, n)
		}
	}
	return roots
}

func matchesHotRoot(n *analysis.FuncNode) bool {
	for _, spec := range hotRoots {
		if n.Pkg.Path != spec.pkg || n.Obj.Name() != spec.name {
			continue
		}
		if spec.recv == "" || recvTypeName(n.Obj) == spec.recv {
			return true
		}
	}
	return false
}

// recvTypeName returns the name of fn's receiver type (pointer
// dereferenced), or "".
func recvTypeName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// rootWitness maps every reachable node to the first root that reaches
// it (BFS order, deterministic), for diagnostic provenance.
func rootWitness(roots []*analysis.FuncNode) map[*analysis.FuncNode]*analysis.FuncNode {
	witness := make(map[*analysis.FuncNode]*analysis.FuncNode)
	var queue []*analysis.FuncNode
	for _, r := range roots {
		if _, ok := witness[r]; !ok {
			witness[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callees {
			if _, ok := witness[c.Node]; !ok {
				witness[c.Node] = witness[n]
				queue = append(queue, c.Node)
			}
		}
		for _, l := range n.Lits {
			if _, ok := witness[l]; !ok {
				witness[l] = witness[n]
				queue = append(queue, l)
			}
		}
	}
	return witness
}

func checkHotFunc(pass *analysis.ModulePass, n *analysis.FuncNode, root *analysis.FuncNode) {
	info := n.Pkg.Info
	via := ""
	if root != nil && root != n {
		via = fmt.Sprintf(" (hot path: reachable from %s)", root.Name())
	} else if root == n {
		via = " (hot path root)"
	}
	recycled := recycledSlices(info, n)
	analysis.InspectOwn(n, func(nd ast.Node) {
		switch nd := nd.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, info, n, nd, recycled, via)
		case *ast.CompositeLit:
			switch info.TypeOf(nd).Underlying().(type) {
			case *types.Map:
				pass.Reportf(nd.Pos(), "map literal allocates in the steady-state simulate path%s; hoist it to setup or reuse a scratch map", via)
			case *types.Slice:
				pass.Reportf(nd.Pos(), "slice literal allocates in the steady-state simulate path%s; hoist it to setup or reuse a scratch buffer", via)
			}
		case *ast.FuncLit:
			// InspectOwn stops at literal boundaries, so this is only
			// reached for... nothing; literals are their own nodes.
		}
	})
	// A closure defined in a hot function captures its environment on
	// the heap at creation time — report at the literal, attributed to
	// the defining (hot) function.
	for _, lit := range n.Lits {
		if capd := capturedVars(info, lit); len(capd) > 0 {
			pass.Reportf(lit.Pos(), "closure captures %s and allocates its environment in the steady-state simulate path%s; hoist the closure to setup and reuse it (the bound-once requestFn pattern)", quoteList(capd), via)
		}
	}
}

func checkHotCall(pass *analysis.ModulePass, info *types.Info, n *analysis.FuncNode, call *ast.CallExpr, recycled map[types.Object]bool, via string) {
	// append growing a non-recycled slice.
	if isBuiltin(info, call, "append") && len(call.Args) > 0 {
		target := rootIdent(call.Args[0])
		obj := types.Object(nil)
		if target != nil {
			obj = objOf(info, target)
		}
		if obj == nil || !recycled[obj] {
			name := "the slice"
			if target != nil {
				name = fmt.Sprintf("%q", target.Name)
			}
			pass.Reportf(call.Pos(), "append may grow %s in the steady-state simulate path%s; preallocate with capacity or recycle a scratch slice (s = s[:0])", name, via)
		}
		return
	}
	// make of maps, slices, chans.
	if isBuiltin(info, call, "make") {
		pass.Reportf(call.Pos(), "make allocates in the steady-state simulate path%s; hoist the allocation to setup and reuse it", via)
		return
	}
	// fmt.Sprintf and friends.
	if path, name, ok := pkgFunc(info, call); ok && path == "fmt" &&
		(name == "Sprintf" || name == "Sprint" || name == "Sprintln" || name == "Errorf" || name == "Appendf") {
		pass.Reportf(call.Pos(), "fmt.%s allocates in the steady-state simulate path%s; move formatting off the hot path (error paths can be annotated //wfsimlint:allow hotalloc)", name, via)
		return
	}
	// Interface boxing at call boundaries.
	checkBoxing(pass, info, call, via)
}

// checkBoxing flags arguments whose concrete non-pointer value is passed
// where an interface is expected — each such pass boxes on the heap.
func checkBoxing(pass *analysis.ModulePass, info *types.Info, call *ast.CallExpr, via string) {
	sigTV, ok := info.Types[call.Fun]
	if !ok || sigTV.IsType() {
		return // conversion, not a call
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointers fit in the interface word
		}
		pass.Reportf(arg.Pos(), "passing %s by value into an interface parameter boxes it on the heap in the steady-state simulate path%s; pass a pointer or restructure the call", at.String(), via)
	}
}

// recycledSlices finds slice variables the function visibly recycles —
// truncated with s = s[:0] or made with an explicit capacity — which
// makes appends to them amortized-allocation-free.
func recycledSlices(info *types.Info, n *analysis.FuncNode) map[types.Object]bool {
	recycled := make(map[types.Object]bool)
	mark := func(lhs, rhs ast.Expr) {
		id := rootIdent(lhs)
		if id == nil {
			return
		}
		obj := objOf(info, id)
		if obj == nil {
			return
		}
		switch r := ast.Unparen(rhs).(type) {
		case *ast.SliceExpr:
			// s = s[:0] (or any reslice of the same object).
			if rid := rootIdent(r.X); rid != nil && objOf(info, rid) == obj {
				recycled[obj] = true
			}
		case *ast.CallExpr:
			if isBuiltin(info, r, "make") && len(r.Args) == 3 {
				recycled[obj] = true
			}
		}
	}
	analysis.InspectOwn(n, func(nd ast.Node) {
		as, ok := nd.(*ast.AssignStmt)
		if !ok {
			return
		}
		for i := range as.Lhs {
			if i < len(as.Rhs) {
				mark(as.Lhs[i], as.Rhs[i])
			}
		}
	})
	return recycled
}

// capturedVars lists the variables lit captures from its enclosing
// function, in first-use order.
func capturedVars(info *types.Info, lit *analysis.FuncNode) []string {
	var names []string
	seen := make(map[types.Object]bool)
	litStart, litEnd := lit.Lit.Pos(), lit.Lit.End()
	ast.Inspect(lit.Lit.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Captured: declared outside the literal but not at package level.
		if v.Pos() >= litStart && v.Pos() < litEnd {
			return true // the literal's own params/locals
		}
		if isPackageLevel(v) {
			return true
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}

func quoteList(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%q", n)
	}
	return out
}
