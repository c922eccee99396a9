package analyze

import (
	"slices"
	"sort"
	"strings"

	"junicon/internal/ast"
)

// pipeGraph is the pipe-topology pass. Where the local checks look at
// single sites (activation of a non-co-expression, a pipe consuming
// itself), this pass looks at the graph the creation sites of each scope
// form — which pipe feeds which, how much each producer can yield (from
// the interprocedural facts), and whether anything ever drains an engine
// — and reports
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
func (a *analyzer) pipeGraph(top *scope, roots []ast.Node, facts *Facts) {
	names := make([]string, 0, len(facts.cg.procs))
	for name := range facts.cg.procs {
		names = append(names, name)
	}
	sort.Strings(names)
	scopes, rootsOf := []*scope{top}, [][]ast.Node{roots}
	for _, name := range names {
		p := facts.cg.procs[name]
		// A proc-local engine cannot escape the invocation except by being
		// returned or suspended, which reads it.
		scopes, rootsOf = append(scopes, facts.ctx[p]), append(rootsOf, []ast.Node{p.Body})
	}
	for i, sc := range scopes {
		a.pipeCycles(sc)
		a.deadEngines(sc, scopes)
		a.unboundedAccumulation(sc, rootsOf[i], facts)
	}
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
func (a *analyzer) pipeCycles(sc *scope) {
	byName := map[string]*create{}
	for _, c := range sc.creates {
		if c.node.Op == "|>" && c.to != "" {
			byName[c.to] = c
		}
	}
	if len(byName) < 2 {
		return
	}
	edges := map[string][]string{}
	for name, c := range byName {
		seen := map[string]bool{}
		for _, s := range sc.drains(c) {
			if on := s.name; on != name && !seen[on] && byName[on] != nil {
				seen[on] = true
				edges[name] = append(edges[name], on)
			}
		}
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
		if slices.Min(cyc) != v {
			continue // report each cycle once, at its least member
		}
		a.diag(byName[v].node.Pos(), CodePipeCycle, Warning,
			"pipes %s activate each other in a cycle: every link waits on a bounded queue, so no buffer sizes satisfy the queue invariant — guaranteed deadlock",
			`"`+strings.Join(append(cyc, cyc[0]), `" -> "`)+`"`)
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

// deadEngines reports JV013 for creation sites bound to a name that is
// never read outside the creation itself. A top-level engine is a global:
// any procedure may read it.
func (a *analyzer) deadEngines(sc *scope, scopes []*scope) {
	for _, c := range sc.creates {
		if c.to == "" || sc.usedIn(c.to, useRead, c, false) {
			continue
		}
		if sc == scopes[0] && slices.ContainsFunc(scopes[1:], func(p *scope) bool { return p.usedIn(c.to, useRead, nil, false) }) {
			continue
		}
		a.diag(c.node.Pos(), CodeDeadEngine, Warning,
			"%s bound to %q is never activated, promoted or passed on: a dead engine%s",
			c.node.Op, c.to,
			map[bool]string{true: " whose producer goroutine outlives any consumer", false: ""}[c.node.Op == "|>"])
	}
}

// unboundedAccumulation reports JV012 when a loop drains a provably
// unbounded pipe while accumulating into a structure.
func (a *analyzer) unboundedAccumulation(sc *scope, roots []ast.Node, facts *Facts) {
	unbounded := map[string]bool{}
	for _, c := range sc.creates {
		if c.node.Op != "|>" || c.to == "" {
			continue
		}
		if g, ok := facts.At(c.node.X); ok && g.Yields.Max == BoundUnbounded {
			unbounded[c.to] = true
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
func (a *analyzer) truncatedEffects(p *ast.Program, facts *Facts) {
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
