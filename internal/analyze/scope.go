package analyze

import (
	"strings"

	"junicon/internal/ast"
)

// scope is the symbol table of one body — a procedure, or the top-level
// statements, which run in the shared global scope — filled by one walk.
// The fact engine reads which names are locals and statics. The
// diagnostics build their tables with vet set, which also records each
// name's kinds and the sites where it is read, bound and drained, and the
// creation sites.
type scope struct {
	syms map[string]sym
	// suspends reports a suspend outside every nested create body: the
	// procedure is a generator.
	suspends bool
	*vetted  // nil on the evaluators' load path
}

// vetted is what only the diagnostics read of a scope.
type vetted struct {
	sites   []site    // in pre-order
	creates []*create // in pre-order
	cuts    []int     // where each collected root's sites begin
}

// collector is the state of the walk that fills a scope.
type collector struct {
	*scope
	globals map[string]bool // names an assignment does not make local
	ord     int             // pre-order index of the next node
	nest    int             // create bodies around the walk
	in      *create         // innermost |<> or |> around the walk
	aliases [][2]string     // x := y, x := ^y: x has y's kinds
}

// sym is what a scope knows of one name: how it is bound and, with vet,
// the kinds of every value assigned to it.
type sym uint16

const (
	symParam sym = 1 << iota
	// symDeclared marks local/static/var names: reading one without an
	// initializer is the deliberate &null idiom, never "never-assigned".
	symDeclared
	// symAssigned marks names assigned (or bound by an iteration) anywhere
	// in the scope — Icon's rule that assignment makes a name local.
	symAssigned
	// symStatic marks names declared static: they outlive the invocation.
	symStatic
	// symLocal marks names bound in the scope and not declared global: a
	// call through one is a call through a value, not a reference to the
	// global procedure of the same name.
	symLocal

	// The kinds, the coarse static type lattice of the concurrency checks.
	kindValue  // plain value: literal, arithmetic result …
	kindCoexpr // co-expression or first-class generator: <>e, |<>e
	kindPipe   // generator proxy: |>e
	kindOther  // anything the analyzer cannot classify

	kinds = kindValue | kindCoexpr | kindPipe | kindOther
)

// site is one occurrence of a name the diagnostics look up.
type site struct {
	name string
	node ast.Node // the Ident or TmpRef; the VarDecl or BindIn that binds it
	ord  int      // pre-order index of the node the site was recorded at
	use  use
	in   *create
}

// use says how a site uses its name.
type use uint8

const (
	useRead   use = 1 << iota // the value is read or passed on (JV013)
	useCheck                  // a read JV001 checks: not a swap operand
	useAssign                 // assignment target, initialized declaration, bound iteration
	useTarget                 // the target of an assignment operator (JV008)
	useDecl                   // named by a local/static/var declaration
	useDrain                  // the operand of @e, !e or x @ e
)

// create is one <>, |<> or |> site; its subtree spans the pre-order
// indices [lo, hi).
type create struct {
	node   *ast.Unary
	to     string // the variable it is directly assigned to ("" if none)
	lo, hi int
}

func (c *create) holds(s site) bool { return s.ord >= c.lo && s.ord < c.hi }

// newScope collects a procedure's table. Assignment makes a name local
// unless globals declares it global — exactly the names |<> and |> do not
// shadow, so a write to one is visible outside whatever the procedure
// creates.
func newScope(p *ast.ProcDecl, globals map[string]bool, vet bool) *scope {
	c := collector{scope: &scope{syms: map[string]sym{}}, globals: globals}
	for _, param := range p.Params {
		c.syms[param] |= symParam | symLocal
	}
	if vet {
		c.vetted = &vetted{}
	}
	c.collect(p.Body)
	c.resolveAliases()
	return c.scope
}

// topScope collects the table of the top-level statements.
func topScope(roots []ast.Node) *scope {
	c := collector{scope: &scope{syms: map[string]sym{}, vetted: &vetted{}}}
	for _, r := range roots {
		c.collect(r)
	}
	c.resolveAliases()
	return c.scope
}

// collect adds one root's subtree to the table.
func (c *collector) collect(root ast.Node) {
	if c.vetted != nil {
		c.cuts = append(c.cuts, len(c.sites))
	}
	c.walk(root, useRead|useCheck, "")
}

// rootSites returns the sites of the i-th collected root.
func (sc *scope) rootSites(i int) []site {
	if i+1 < len(sc.cuts) {
		return sc.sites[sc.cuts[i]:sc.cuts[i+1]]
	}
	return sc.sites[sc.cuts[i]:]
}

// walk records n's subtree. An identifier reached here is used as m says:
// read (useRead|useCheck); written, inside an assignment target through /
// or \ (0); or the same inside a swap operand, which also passes the value
// on (useRead). Everything else beneath a target reads: q[c] := r reads q
// and c. to is the variable n is directly assigned to.
func (c *collector) walk(n ast.Node, m use, to string) {
	ord := c.ord
	c.ord++
	child := useRead | useCheck
	if operand, ok := consumedOperand(n); ok {
		if name, ok := identName(operand); ok {
			c.see(name, operand, ord, useDrain)
		}
	}
	switch x := n.(type) {
	case *ast.Ident:
		c.see(x.Name, x, ord, m)
	case *ast.TmpRef:
		c.see(x.Name, x, ord, m&^useCheck)
	case *ast.VarDecl:
		for i, name := range x.Names {
			s, u := symDeclared|symLocal, useDecl
			if x.Kind == "static" {
				s |= symStatic
			}
			if x.Inits[i] != nil {
				s, u = s|symAssigned, u|useAssign
				c.bind(name, x.Inits[i])
			}
			c.syms[name] |= s
			c.see(name, x, ord, u)
		}
		for i, init := range x.Inits {
			if init != nil {
				c.walk(init, child, x.Names[i])
			}
		}
		return
	case *ast.BindIn:
		c.assign(x.Tmp, x, ord, 0)
		if c.vetted != nil {
			c.syms[x.Tmp] |= exprKind(x.E)
		}
	case *ast.Binary:
		if !isAssignOp(x.Op) {
			break
		}
		swap := x.Op == ":=:" || x.Op == "<->"
		mode, target := use(0), useTarget
		if swap {
			mode, target = useRead, useTarget|useRead
		}
		name, ok := identName(x.L)
		if ok {
			c.assign(name, x.L, ord, target)
			c.bind(name, x.R)
		} else {
			c.walk(x.L, mode, "")
		}
		if r, ok := identName(x.R); ok && swap {
			c.assign(r, x.R, ord, target)
			if c.vetted != nil {
				c.syms[r] |= kindOther
			}
			return
		}
		if swap {
			child = mode
		}
		c.walk(x.R, child, name)
		return
	case *ast.Unary:
		switch x.Op {
		case "<>", "|<>", "|>":
			var cr *create
			if c.vetted != nil {
				cr = &create{node: x, to: to, lo: ord}
				c.creates = append(c.creates, cr)
			}
			in := c.in
			if x.Op != "<>" {
				c.in = cr
			}
			c.nest++
			c.walk(x.X, child, "")
			c.nest--
			c.in = in
			if cr != nil {
				cr.hi = c.ord
			}
			return
		case "/", "\\":
			child = m // /x and \x in a target still assign x itself
		}
	case *ast.Suspend:
		if c.nest == 0 {
			c.suspends = true
		}
	}
	ast.EachChild(n, func(k ast.Node) { c.walk(k, child, "") })
}

// assign records that the scope binds name at node.
func (c *collector) assign(name string, node ast.Node, ord int, u use) {
	s := symAssigned
	if !c.globals[name] {
		s |= symLocal
	}
	c.syms[name] |= s
	c.see(name, node, ord, u|useAssign)
}

// bind records the kind of the value src assigns to name.
func (c *collector) bind(name string, src ast.Node) {
	if c.vetted == nil {
		return
	}
	if from, ok := aliasSource(src); ok {
		c.aliases = append(c.aliases, [2]string{name, from})
	} else {
		c.syms[name] |= exprKind(src)
	}
}

func (c *collector) see(name string, node ast.Node, ord int, u use) {
	if c.vetted != nil && u != 0 {
		c.sites = append(c.sites, site{name, node, ord, u, c.in})
	}
}

// aliasSource unwraps an assignment source that transfers another
// variable's value (and so its kind): plain x := y, or x := ^y — a
// refreshed co-expression is a co-expression, a refreshed pipe a pipe.
func aliasSource(n ast.Node) (string, bool) {
	if u, ok := n.(*ast.Unary); ok && u.Op == "^" {
		n = u.X
	}
	return identName(n)
}

// resolveAliases propagates kinds through variable-to-variable assignments
// until a fixed point.
func (c *collector) resolveAliases() {
	for changed := true; changed; {
		changed = false
		for _, al := range c.aliases {
			k := c.syms[al[1]] & kinds
			if c.syms[al[0]]&k != k {
				c.syms[al[0]] |= k
				changed = true
			}
		}
	}
}

func (sc *scope) has(name string, s sym) bool { return sc.syms[name]&s != 0 }

// onlyKind reports whether every value assigned to name in this scope has
// kind k (and at least one assignment was seen).
func (sc *scope) onlyKind(name string, k sym) bool { return sc.syms[name]&kinds == k }

// outer reports whether name is a variable of the scope outside create c:
// a parameter or declared local, or a name bound somewhere outside c's
// subtree — a name bound only inside it is private to it, not snapshotted.
func (sc *scope) outer(name string, c *create) bool {
	return sc.has(name, symParam|symDeclared) || sc.usedIn(name, useAssign, c, false)
}

// usedIn reports whether name has a site with one of the uses u inside
// create c (in) or outside it (!in; a nil c holds nothing).
func (sc *scope) usedIn(name string, u use, c *create, in bool) bool {
	for _, s := range sc.sites {
		if s.name == name && s.use&u != 0 && (c != nil && c.holds(s)) == in {
			return true
		}
	}
	return false
}

// createOf returns the creation site of u.
func (sc *scope) createOf(u *ast.Unary) *create {
	for _, c := range sc.creates {
		if c.node == u {
			return c
		}
	}
	return nil
}

// drains returns the sites drained inside create c, in order.
func (sc *scope) drains(c *create) []site {
	var out []site
	for _, s := range sc.sites {
		if s.use&useDrain != 0 && c.holds(s) {
			out = append(out, s)
		}
	}
	return out
}

// isAssignOp reports whether op binds its left operand: plain, reversible
// and augmented assignment, and the swap operators.
func isAssignOp(op string) bool {
	switch op {
	case ":=", "<-", ":=:", "<->":
		return true
	}
	return len(op) > 2 && strings.HasSuffix(op, ":=")
}

// identName unwraps an identifier or temporary reference.
func identName(n ast.Node) (string, bool) {
	switch x := n.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.TmpRef:
		return x.Name, true
	}
	return "", false
}

// exprKind classifies the static kind of an expression's results.
func exprKind(n ast.Node) sym {
	switch x := n.(type) {
	case *ast.IntLit, *ast.RealLit, *ast.StrLit, *ast.CsetLit, *ast.ListLit, *ast.ToBy:
		return kindValue
	case *ast.Keyword:
		if x.Name == "fail" {
			return kindOther
		}
		return kindValue
	case *ast.Unary:
		switch x.Op {
		case "<>", "|<>":
			return kindCoexpr
		case "|>":
			return kindPipe
		case "*", "-", "+", "~", "not", "=":
			return kindValue
		case "^":
			// A refreshed co-expression is a co-expression (or pipe: the
			// concurrency checks flag that case separately).
			return exprKind(x.X)
		}
		return kindOther
	case *ast.Binary:
		if isValueOp(x.Op) {
			return kindValue
		}
		if x.Op == ":=" {
			return exprKind(x.R)
		}
		return kindOther
	default:
		return kindOther
	}
}

// isValueOp reports whether a binary operator always produces a plain
// value (never a co-expression, pipe, or variable reference).
func isValueOp(op string) bool {
	switch op {
	// Note: === / ~=== are absent — value identity succeeds with its right
	// operand unchanged, which may itself be a co-expression.
	case "+", "-", "*", "/", "%", "^", "||", "|||", "++", "--", "**",
		"<", "<=", ">", ">=", "~=", "==", "~==",
		"<<", "<<=", ">>", ">>=", "to":
		return true
	}
	return false
}
