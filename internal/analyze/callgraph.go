package analyze

import (
	"junicon/internal/ast"
)

// callGraph is the whole-program call structure under the fact engine:
// which procedure calls which. It grows a batch of declarations at a time
// (Facts.ExtendDecls): edges are resolved against the procedures known
// when the caller is added, and late remembers what a later definition
// would resolve differently.
type callGraph struct {
	// procs maps procedure (and method) names to their declarations.
	procs map[string]*ast.ProcDecl
	// calls maps caller name → callee names for calls through statically
	// resolvable identifiers that are not shadowed by locals.
	calls map[string]map[string]bool
	// unknown marks callers that invoke through computed values, locals,
	// undeclared names or undeclared natives — their effect summaries
	// must assume the top of the lattice for those sites.
	unknown map[string]bool
	// late holds the non-local callee names that resolved to no procedure
	// (a builtin, a record constructor, a host value, nothing yet): a
	// declaration of one of them rebinds sites already in the graph.
	late map[string]bool
}

func newCallGraph() *callGraph {
	return &callGraph{
		procs:   map[string]*ast.ProcDecl{},
		calls:   map[string]map[string]bool{},
		unknown: map[string]bool{},
		late:    map[string]bool{},
	}
}

// addCalls walks one caller's body recording its call edges.
func (cg *callGraph) addCalls(p *ast.ProcDecl, sc *scope) {
	caller := p.Name
	ast.Walk(p.Body, func(n ast.Node) bool {
		x, ok := n.(*ast.Call)
		if !ok {
			return true
		}
		name, ok := identName(x.Fun)
		switch {
		case !ok || sc.has(name, symLocal):
			// A computed callee, or a call through a local value
			// (normalization temporaries included): resolved dynamically.
			cg.unknown[caller] = true
		case cg.procs[name] != nil:
			if cg.calls[caller] == nil {
				cg.calls[caller] = map[string]bool{}
			}
			cg.calls[caller][name] = true
		default:
			cg.late[name] = true
			// A builtin's effects come from the builtin table, not an
			// edge; anything else is unknown.
			if !builtinNames()[name] {
				cg.unknown[caller] = true
			}
		}
		return true
	})
}

// recursiveAmong returns those of names that are reachable from
// themselves in the call graph — the procedures on a call cycle.
func (cg *callGraph) recursiveAmong(names []string) map[string]bool {
	out := map[string]bool{}
	for _, name := range names {
		if cg.reaches(name, name, map[string]bool{}) {
			out[name] = true
		}
	}
	return out
}

// reaches reports whether target is reachable from the callees of from.
func (cg *callGraph) reaches(from, target string, seen map[string]bool) bool {
	for callee := range cg.calls[from] {
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
