package analyze

import (
	"sort"
	"strings"

	"junicon/internal/ast"
)

// pipegraph is pass 5: the pipe-topology pass. Where pass 4 checks single
// sites (activation of a non-co-expression, a pipe consuming itself), this
// pass looks at the graph the creation sites form — which pipe feeds
// which, how much each producer can yield (from the interprocedural
// facts), and whether anything ever drains an engine — and reports
//
//   - JV011: two or more pipes whose producers activate each other. Every
//     edge of the cycle waits on a bounded queue (§3B), so no buffer
//     assignment satisfies the invariant: guaranteed deadlock.
//   - JV012: a loop that drains a provably unbounded producer while
//     accumulating into a structure (put/push/insert) — memory grows
//     without bound.
//   - JV013: a generator bound to a variable that is never read again —
//     a dead engine; a pipe's producer goroutine is left running against
//     a queue nobody drains.
//   - JV014: limit applied to an effectful generator that provably yields
//     more than the limit — truncation silently drops the side effects of
//     the never-produced results.
func (a *Analyzer) pipeGraph(p *ast.Program, facts *Facts) {
	cg := facts.cg
	for name, decl := range cg.Procs {
		cg.addCreates(name, decl.Body)
	}
	for _, d := range topLevelRoots(p) {
		cg.addCreates(TopLevel, d)
	}
	owners := map[string][]CreateSite{}
	for _, s := range cg.Creates {
		owners[s.In] = append(owners[s.In], s)
	}
	var procRoots []ast.Node
	for name := range cg.Procs {
		procRoots = append(procRoots, cg.Procs[name].Body)
	}
	topRoots := topLevelRoots(p)

	names := make([]string, 0, len(owners))
	for o := range owners {
		names = append(names, o)
	}
	sort.Strings(names)
	for _, owner := range names {
		sites := owners[owner]
		roots := topRoots
		reads := append(append([]ast.Node{}, topRoots...), procRoots...)
		if owner != TopLevel {
			roots = []ast.Node{cg.Procs[owner].Body}
			// A proc-local engine cannot escape the invocation except by
			// being returned/suspended — returns count as reads below.
			reads = roots
		}
		a.pipeCycles(sites)
		a.deadEngines(sites, reads)
		a.unboundedAccumulation(sites, roots, facts)
	}
	a.truncatedEffects(p, facts)
}

// topLevelRoots lists the program's top-level statements.
func topLevelRoots(p *ast.Program) []ast.Node {
	var out []ast.Node
	for _, d := range p.Decls {
		switch d.(type) {
		case *ast.ProcDecl, *ast.RecordDecl, *ast.GlobalDecl, *ast.ClassDecl:
		default:
			out = append(out, d)
		}
	}
	return out
}

// consumedOperand unwraps the operand an expression drains: @e, !e, x @ e.
func consumedOperand(n ast.Node) (ast.Node, bool) {
	switch x := n.(type) {
	case *ast.Unary:
		if x.Op == "@" || x.Op == "!" {
			return x.X, true
		}
	case *ast.Binary:
		if x.Op == "@" {
			return x.R, true
		}
	}
	return nil, false
}

// pipeCycles reports JV011 for activation cycles of length >= 2 among the
// named pipes of one scope (self-loops are JV007's).
func (a *Analyzer) pipeCycles(sites []CreateSite) {
	byName := map[string]CreateSite{}
	for _, s := range sites {
		if s.Kind == CreatePipe && s.BoundTo != "" {
			byName[s.BoundTo] = s
		}
	}
	if len(byName) < 2 {
		return
	}
	edges := map[string][]string{}
	for name, s := range byName {
		seen := map[string]bool{}
		ast.Walk(s.Node.X, func(m ast.Node) bool {
			if operand, ok := consumedOperand(m); ok {
				if on, ok := identName(operand); ok && on != name && !seen[on] {
					if _, isPipe := byName[on]; isPipe {
						seen[on] = true
						edges[name] = append(edges[name], on)
					}
				}
			}
			return true
		})
		sort.Strings(edges[name])
	}
	vars := make([]string, 0, len(byName))
	for v := range byName {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		cyc := cycleThrough(v, edges)
		if cyc == nil {
			continue
		}
		min := cyc[0]
		for _, c := range cyc {
			if c < min {
				min = c
			}
		}
		if min != v {
			continue // report each cycle once, at its least member
		}
		site := byName[v]
		a.diag(site.Node.Pos(), CodePipeCycle, Warning,
			"pipes %s activate each other in a cycle: every link waits on a bounded queue, so no buffer sizes satisfy the queue invariant — guaranteed deadlock",
			strings.Join(quoted(cyc), " -> ")+" -> "+quoted(cyc[:1])[0])
	}
}

// cycleThrough returns a path v -> … -> v of length >= 2, or nil.
func cycleThrough(v string, edges map[string][]string) []string {
	var dfs func(cur string, path []string, on map[string]bool) []string
	dfs = func(cur string, path []string, on map[string]bool) []string {
		for _, next := range edges[cur] {
			if next == v && len(path) >= 2 {
				return path
			}
			if on[next] || next == v {
				continue
			}
			on[next] = true
			if cyc := dfs(next, append(path, next), on); cyc != nil {
				return cyc
			}
		}
		return nil
	}
	return dfs(v, []string{v}, map[string]bool{v: true})
}

func quoted(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "\"" + n + "\""
	}
	return out
}

// deadEngines reports JV013 for creation sites bound to a name that is
// never read outside the creation itself.
func (a *Analyzer) deadEngines(sites []CreateSite, reads []ast.Node) {
	for _, s := range sites {
		if s.BoundTo == "" {
			continue
		}
		if a.nameRead(s.BoundTo, s.Node, reads) {
			continue
		}
		a.diag(s.Node.Pos(), CodeDeadEngine, Warning,
			"%s bound to %q is never activated, promoted or passed on: a dead engine%s",
			s.Kind, s.BoundTo,
			map[bool]string{true: " whose producer goroutine outlives any consumer", false: ""}[s.Kind == CreatePipe])
	}
}

// nameRead reports whether name occurs as a read (not an assignment
// target) in the given roots, outside the subtree of exclude.
func (a *Analyzer) nameRead(name string, exclude ast.Node, roots []ast.Node) bool {
	found := false
	for _, root := range roots {
		targets := map[ast.Node]bool{}
		ast.Walk(root, func(m ast.Node) bool {
			if b, ok := m.(*ast.Binary); ok && isAssignOp(b.Op) {
				targets[b.L] = true
				if b.Op == ":=:" || b.Op == "<->" {
					// Swaps read both sides.
					delete(targets, b.L)
				}
			}
			return true
		})
		ast.Walk(root, func(m ast.Node) bool {
			if m == exclude || found {
				return false
			}
			if targets[m] {
				return false
			}
			if n, ok := identName(m); ok && n == name {
				if _, isLeaf := m.(*ast.Ident); isLeaf {
					found = true
				} else if _, isTmp := m.(*ast.TmpRef); isTmp {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return found
}

// unboundedAccumulation reports JV012 when a loop drains a provably
// unbounded pipe while accumulating into a structure.
func (a *Analyzer) unboundedAccumulation(sites []CreateSite, roots []ast.Node, facts *Facts) {
	unbounded := map[string]bool{}
	for _, s := range sites {
		if s.Kind != CreatePipe || s.BoundTo == "" {
			continue
		}
		if g, ok := facts.At(s.Node.X); ok && g.Yields.Max == BoundUnbounded {
			unbounded[s.BoundTo] = true
		}
	}
	if len(unbounded) == 0 {
		return
	}
	for _, root := range roots {
		ast.Walk(root, func(n ast.Node) bool {
			var parts []ast.Node
			switch x := n.(type) {
			case *ast.Every:
				parts = []ast.Node{x.E, x.Body}
			case *ast.While:
				parts = []ast.Node{x.Cond, x.Body}
			case *ast.Repeat:
				parts = []ast.Node{x.Body}
			default:
				return true
			}
			drained := ""
			for _, part := range parts {
				if name := drainsOneOf(part, unbounded); name != "" {
					drained = name
					break
				}
			}
			if drained == "" {
				return true
			}
			for _, part := range parts {
				if call := findAccumulation(part); call != nil {
					a.diag(call.Pos(), CodeUnboundedAccumulation, Warning,
						"loop drains unbounded pipe %q while accumulating with %q: the structure grows without bound",
						drained, callName(call))
					return false
				}
			}
			return true
		})
	}
}

// drainsOneOf returns the first name of set that the subtree activates or
// promotes ("" when none).
func drainsOneOf(n ast.Node, set map[string]bool) string {
	name := ""
	ast.Walk(n, func(m ast.Node) bool {
		if name != "" {
			return false
		}
		if operand, ok := consumedOperand(m); ok {
			if on, ok := identName(operand); ok && set[on] {
				name = on
			}
		}
		return true
	})
	return name
}

// findAccumulation locates a call to a structure-growing builtin.
func findAccumulation(n ast.Node) *ast.Call {
	var out *ast.Call
	ast.Walk(n, func(m ast.Node) bool {
		if out != nil {
			return false
		}
		if c, ok := m.(*ast.Call); ok {
			switch callName(c) {
			case "put", "push", "insert":
				out = c
			}
		}
		return true
	})
	return out
}

func callName(c *ast.Call) string {
	name, _ := identName(c.Fun)
	return name
}

// truncatedEffects reports JV014: a constant limit on a generator whose
// effect summary includes observable output (IO or global writes) and
// whose yield bound provably exceeds the limit.
func (a *Analyzer) truncatedEffects(p *ast.Program, facts *Facts) {
	ast.Walk(p, func(n ast.Node) bool {
		x, ok := n.(*ast.Binary)
		if !ok || x.Op != "\\" {
			return true
		}
		lim, ok := intConst(x.R)
		if !ok || lim <= 0 {
			return true // JV004's territory
		}
		g, ok := facts.At(x.L)
		if !ok {
			return true
		}
		if g.Effects&(EffIO|EffWritesGlobals) == 0 {
			return true
		}
		exceeds := maxRank(g.Yields.Max) > 0 ||
			(g.Yields.Max >= 0 && int64(g.Yields.Max) > lim)
		if !exceeds {
			return true
		}
		a.diag(x.P, CodeTruncatedEffects, Warning,
			"limit %d truncates an effectful generator (%s, yields %s): side effects of the dropped results silently never happen",
			lim, g.Effects, g.Yields)
		return true
	})
}
