package analyze

import (
	"junicon/internal/ast"
)

// callgraph builds the structural layer under the interprocedural passes:
// which procedure calls which, where generators are created (<>e, |<>e,
// |>e), and where the pipe/product/alternation/limit combinators appear.
// Top-level statements are modeled as a pseudo-procedure named "" so the
// REPL's unit of input and whole programs share one graph.

// TopLevel is the pseudo-procedure name of the program's top-level
// statement sequence in the call graph.
const TopLevel = ""

// CreateKind classifies a generator-creation site.
type CreateKind int

const (
	// CreateGen is <>e: a first-class generator over the unshadowed body.
	CreateGen CreateKind = iota
	// CreateCoexpr is |<>e: a co-expression with snapshotted locals.
	CreateCoexpr
	// CreatePipe is |>e: a generator proxy with its own thread of
	// execution and a bounded transport queue.
	CreatePipe
)

// String names the creation operator.
func (k CreateKind) String() string {
	switch k {
	case CreatePipe:
		return "|>"
	case CreateCoexpr:
		return "|<>"
	default:
		return "<>"
	}
}

// CreateSite is one generator-creation expression.
type CreateSite struct {
	Kind CreateKind
	// Node is the creation expression itself (*ast.Unary).
	Node *ast.Unary
	// In is the enclosing procedure (TopLevel for top-level statements).
	In string
	// BoundTo is the variable the creation is directly assigned to
	// ("" when the created generator is used anonymously).
	BoundTo string
}

// CallGraph is the whole-program call structure. It grows a batch of
// declarations at a time (Facts.ExtendDecls): edges are resolved against
// the procedures known when the caller is added, and late remembers what
// a later definition would resolve differently.
type CallGraph struct {
	// Procs maps procedure (and method) names to their declarations.
	Procs map[string]*ast.ProcDecl
	// Calls maps caller name → callee names for calls through statically
	// resolvable identifiers that are not shadowed by locals.
	Calls map[string]map[string]bool
	// Unknown marks callers that invoke through computed values, locals,
	// undeclared names or undeclared natives — their effect summaries
	// must assume the top of the lattice for those sites.
	Unknown map[string]bool
	// Creates lists every generator-creation site, each owner's in source
	// order. Filled by addCreates, for the pipe-graph diagnostics only.
	Creates []CreateSite
	// late holds the non-local callee names that resolved to no procedure
	// (a builtin, a record constructor, a host value, nothing yet): a
	// declaration of one of them rebinds sites already in the graph.
	late map[string]bool
}

func newCallGraph() *CallGraph {
	return &CallGraph{
		Procs:   map[string]*ast.ProcDecl{},
		Calls:   map[string]map[string]bool{},
		Unknown: map[string]bool{},
		late:    map[string]bool{},
	}
}

// procCtx is the name-resolution context of one analyzed body, computed
// once per declaration: every pass of the fact engine over a procedure
// (call edges, each fixpoint round, the caching pass) resolves names
// through the same two sets.
type procCtx struct {
	name string
	// locals are the locally bound names: parameters, declared
	// locals/statics, bound-iteration temporaries and assignment targets
	// the program does not declare global. A call through one of them is
	// a call through a value, not a reference to the global procedure of
	// the same name.
	locals map[string]bool
	// statics is the subset of locals declared `static`: they outlive the
	// invocation, so touching one is an effect of calling the procedure.
	statics map[string]bool
}

// topLevelCtx is the context of top-level statements and standalone
// expressions: they run in the global scope, so nothing is local.
var topLevelCtx = &procCtx{name: TopLevel}

// newProcCtx collects a procedure's name sets in one walk of its body.
// Assignment makes a name local unless it is one of the program's declared
// globals — exactly the names |<> and |> do not shadow, so a write to one
// is visible outside whatever the procedure creates.
func newProcCtx(p *ast.ProcDecl, globals map[string]bool) *procCtx {
	cx := &procCtx{name: p.Name, locals: map[string]bool{}}
	for _, param := range p.Params {
		cx.locals[param] = true
	}
	ast.Walk(p.Body, func(n ast.Node) bool {
		if x, ok := n.(*ast.VarDecl); ok {
			for _, name := range x.Names {
				cx.locals[name] = true
				if x.Kind == "static" {
					if cx.statics == nil {
						cx.statics = map[string]bool{}
					}
					cx.statics[name] = true
				}
			}
			return true
		}
		eachAssigned(n, func(name string) {
			if !globals[name] {
				cx.locals[name] = true
			}
		})
		return true
	})
	return cx
}

// addCalls walks one caller's body recording its call edges.
func (cg *CallGraph) addCalls(cx *procCtx, body ast.Node) {
	caller := cx.name
	ast.Walk(body, func(n ast.Node) bool {
		x, ok := n.(*ast.Call)
		if !ok {
			return true
		}
		name, ok := identName(x.Fun)
		switch {
		case !ok || cx.locals[name]:
			// A computed callee, or a call through a local value
			// (normalization temporaries included): resolved dynamically.
			cg.Unknown[caller] = true
		case cg.Procs[name] != nil:
			if cg.Calls[caller] == nil {
				cg.Calls[caller] = map[string]bool{}
			}
			cg.Calls[caller][name] = true
		default:
			cg.late[name] = true
			// A builtin's effects come from the builtin table, not an
			// edge; anything else is unknown.
			if !builtinNames()[name] {
				cg.Unknown[caller] = true
			}
		}
		return true
	})
}

// addCreates walks one owner's body recording its generator-creation
// sites, then attaches BoundTo names to the sites directly assigned to a
// variable (x := |> e, local x := |> e).
func (cg *CallGraph) addCreates(owner string, body ast.Node) {
	first := len(cg.Creates)
	ast.Walk(body, func(n ast.Node) bool {
		if x, ok := n.(*ast.Unary); ok {
			switch x.Op {
			case "<>", "|<>", "|>":
				kind := CreateGen
				if x.Op == "|<>" {
					kind = CreateCoexpr
				} else if x.Op == "|>" {
					kind = CreatePipe
				}
				cg.Creates = append(cg.Creates, CreateSite{Kind: kind, Node: x, In: owner})
			}
		}
		return true
	})
	sites := cg.Creates[first:]
	if len(sites) == 0 {
		return
	}
	bind := func(target string, src ast.Node) {
		u, ok := src.(*ast.Unary)
		if !ok {
			return
		}
		for i := range sites {
			if sites[i].Node == u {
				sites[i].BoundTo = target
			}
		}
	}
	ast.Walk(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Binary:
			if isAssignOp(x.Op) {
				if name, ok := identName(x.L); ok {
					bind(name, x.R)
				}
			}
		case *ast.VarDecl:
			for i, name := range x.Names {
				if i < len(x.Inits) && x.Inits[i] != nil {
					bind(name, x.Inits[i])
				}
			}
		}
		return true
	})
}

// recursiveAmong returns those of names that are reachable from
// themselves in the call graph — the procedures on a call cycle.
func (cg *CallGraph) recursiveAmong(names []string) map[string]bool {
	out := map[string]bool{}
	for _, name := range names {
		if cg.reaches(name, name, map[string]bool{}) {
			out[name] = true
		}
	}
	return out
}

// reaches reports whether target is reachable from the callees of from.
func (cg *CallGraph) reaches(from, target string, seen map[string]bool) bool {
	for callee := range cg.Calls[from] {
		if callee == target {
			return true
		}
		if seen[callee] {
			continue
		}
		seen[callee] = true
		if cg.reaches(callee, target, seen) {
			return true
		}
	}
	return false
}
