package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the module-wide call graph that module-scoped
// analyzers share: one node per function declaration or function
// literal, static call edges between them, and Tarjan SCCs in bottom-up
// (callees-before-callers) order so per-function summaries can be
// computed by a single walk.
//
// Cross-package identity: the offline loader type-checks each module
// package twice (once as an import dependency, once as a lint target),
// so *types.Func objects are not unique across packages. Nodes are
// therefore keyed by types.Func.FullName() — stable across both checks
// of the same source — and call edges resolve through that key.
//
// The graph is intentionally static: calls through interfaces, function
// variables, and channels of functions produce no edge. Analyzers that
// need those targets (hotalloc's scheduler implementations, simblock's
// step bodies) add them as roots directly.

// A FuncNode is one function in the call graph: a declared function or
// method (Decl set) or a function literal (Lit set).
type FuncNode struct {
	// Key is the node's stable identity: types.Func.FullName() for
	// declarations, a position-derived key for literals.
	Key string
	// Obj is the declared function object; nil for literals.
	Obj *types.Func
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declarations.
	Lit *ast.FuncLit
	// Pkg is the package the function was declared in.
	Pkg *ModulePackage
	// Parent is the enclosing function for literals; nil for decls.
	Parent *FuncNode
	// Callees are the statically resolved out-edges, in source order.
	Callees []Call
	// Lits are the function literals defined directly in this
	// function's body (not inside a nested literal).
	Lits []*FuncNode

	// Tarjan scratch.
	index, lowlink int
	onStack        bool
}

// A Call is one resolved call site.
type Call struct {
	// Node is the callee.
	Node *FuncNode
	// Pos is the call expression's position.
	Pos token.Pos
}

// Body returns the function's body block.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the function's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Sig returns the function's signature type.
func (n *FuncNode) Sig() *types.Signature {
	if n.Obj != nil {
		return n.Obj.Type().(*types.Signature)
	}
	if t, ok := n.Pkg.Info.Types[n.Lit].Type.(*types.Signature); ok {
		return t
	}
	return nil
}

// Name returns a human-readable display name: the declared function's
// qualified name, or "function literal in F" for literals.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		return n.Obj.FullName()
	}
	if n.Parent != nil {
		return "function literal in " + n.Parent.Name()
	}
	return "function literal"
}

// A Graph is the module-wide call graph.
type Graph struct {
	// Nodes holds every function, in deterministic (package path, file,
	// position) order.
	Nodes []*FuncNode
	// ByKey resolves a node key (types.Func.FullName()) to its node.
	ByKey map[string]*FuncNode
	// ByLit resolves a function literal to its node.
	ByLit map[*ast.FuncLit]*FuncNode
	// SCCs are the strongly connected components in bottom-up order:
	// every component appears after all components it calls into.
	SCCs [][]*FuncNode
}

// NodeOf resolves a called function object to its graph node, or nil
// when the function has no body in the module (stdlib, declarations).
func (g *Graph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.ByKey[fn.FullName()]
}

// BuildGraph constructs the call graph over pkgs. Packages must be in
// deterministic order; the graph inherits it.
func BuildGraph(fset *token.FileSet, pkgs []*ModulePackage) *Graph {
	g := &Graph{ByKey: make(map[string]*FuncNode), ByLit: make(map[*ast.FuncLit]*FuncNode)}

	// Pass 1: create nodes for every declaration and literal, so edges
	// can resolve forward references and cross-package calls.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{Key: obj.FullName(), Obj: obj, Decl: fd, Pkg: pkg}
				// External test packages shadow the real package under
				// "<path>_test"; first registration (the real package,
				// loaded earlier in path order) wins for edge resolution.
				if g.ByKey[n.Key] == nil {
					g.ByKey[n.Key] = n
				}
				g.Nodes = append(g.Nodes, n)
				collectLits(g, fset, pkg, n)
			}
		}
	}

	// Pass 2: resolve call edges inside every node's own body region
	// (literal bodies belong to the literal's node, not the encloser).
	for _, n := range g.Nodes {
		resolveCalls(g, n)
	}

	g.SCCs = tarjan(g.Nodes)
	return g
}

// collectLits registers a node for every function literal lexically
// inside parent (stopping at nested literals, which recurse).
func collectLits(g *Graph, fset *token.FileSet, pkg *ModulePackage, parent *FuncNode) {
	body := parent.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		lit, ok := nd.(*ast.FuncLit)
		if !ok {
			return true
		}
		pos := fset.Position(lit.Pos())
		ln := &FuncNode{
			Key:    fmt.Sprintf("lit@%s:%d:%d", pos.Filename, pos.Line, pos.Column),
			Lit:    lit,
			Pkg:    pkg,
			Parent: parent,
		}
		parent.Lits = append(parent.Lits, ln)
		g.ByLit[lit] = ln
		g.Nodes = append(g.Nodes, ln)
		collectLits(g, fset, pkg, ln)
		return false // nested literals handled by the recursion
	})
}

// resolveCalls records n's static out-edges: calls whose target is a
// declared function/method with a body in the module, or a directly
// invoked function literal.
func resolveCalls(g *Graph, n *FuncNode) {
	InspectOwn(n, func(nd ast.Node) {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			if ln := g.ByLit[lit]; ln != nil {
				n.Callees = append(n.Callees, Call{Node: ln, Pos: call.Pos()})
			}
			return
		}
		if callee := g.NodeOf(StaticCallee(n.Pkg.Info, call)); callee != nil {
			n.Callees = append(n.Callees, Call{Node: callee, Pos: call.Pos()})
		}
	})
}

// InspectOwn visits every node in fn's body that is not inside a nested
// function literal (literal bodies belong to the literal's own node).
func InspectOwn(fn *FuncNode, visit func(ast.Node)) {
	body := fn.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		if nd != nil {
			visit(nd)
		}
		return true
	})
}

// StaticCallee resolves a call expression to the declared function or
// concrete method it invokes, or nil for dynamic calls (interface
// methods, function values), conversions, and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil // field of function type: dynamic
			}
			if types.IsInterface(sel.Recv()) {
				return nil // interface dispatch: dynamic
			}
			return fn
		}
		// Package-qualified call (pkg.F).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// tarjan computes strongly connected components over Callees edges,
// returned in reverse topological (bottom-up) order: a component is
// emitted only after every component it calls into.
func tarjan(nodes []*FuncNode) [][]*FuncNode {
	var (
		sccs  [][]*FuncNode
		stack []*FuncNode
		next  = 1
	)
	var strongconnect func(n *FuncNode)
	strongconnect = func(n *FuncNode) {
		n.index, n.lowlink = next, next
		next++
		stack = append(stack, n)
		n.onStack = true
		for _, c := range n.Callees {
			m := c.Node
			if m.index == 0 {
				strongconnect(m)
				if m.lowlink < n.lowlink {
					n.lowlink = m.lowlink
				}
			} else if m.onStack && m.index < n.lowlink {
				n.lowlink = m.index
			}
		}
		if n.lowlink == n.index {
			var scc []*FuncNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.onStack = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range nodes {
		if n.index == 0 {
			strongconnect(n)
		}
	}
	return sccs
}

// Reachable returns the set of nodes reachable from roots over call
// edges plus enclosed function literals. Including literals is a
// deliberate over-approximation: a literal created inside a hot or
// process-body function almost always runs in the same context (event
// callbacks, deferred cleanup), and the graph cannot see the indirect
// invocation that would prove it.
func Reachable(roots []*FuncNode) map[*FuncNode]bool {
	seen := make(map[*FuncNode]bool)
	var queue []*FuncNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callees {
			if !seen[c.Node] {
				seen[c.Node] = true
				queue = append(queue, c.Node)
			}
		}
		for _, l := range n.Lits {
			if !seen[l] {
				seen[l] = true
				queue = append(queue, l)
			}
		}
	}
	return seen
}
