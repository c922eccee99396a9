package analyze

import (
	"strings"

	"junicon/internal/ast"
)

// scope is the symbol table of one analysis scope: a procedure body, or
// the shared global scope in which top-level statements run.
type scope struct {
	a *Analyzer
	// params are the procedure's parameters (always bound at entry).
	params map[string]bool
	// declared are names introduced by local/static/var declarations;
	// reading one without an initializer is the deliberate &null idiom, so
	// they are never "never-assigned".
	declared map[string]bool
	// assigned are names that appear as an assignment target (or bound
	// iteration temporary) anywhere in the scope — Icon's rule that
	// assignment makes a name local.
	assigned map[string]bool
	// kinds maps a name to the statically inferred kinds of every value
	// assigned to it in this scope (see kind).
	kinds map[string]map[kind]bool
	// roots are the subtrees the scope was collected from — re-walked by
	// queries that must exclude a region (see assignedOutside).
	roots []ast.Node
	// aliases records assignments whose source is another variable (x := y,
	// x := ^y): the target inherits the source's kinds (see resolveAliases).
	aliases [][2]string
}

// kind is the coarse static type lattice of the concurrency pass.
type kind int

const (
	kindValue  kind = iota // plain value: literal, arithmetic result …
	kindCoexpr             // co-expression or first-class generator: <>e, |<>e
	kindPipe               // generator proxy: |>e
	kindOther              // anything the analyzer cannot classify
)

// collectGlobals gathers program-level names: explicit globals, procedure
// and record and class declarations, class fields (which the embedding
// flattens into globals), and names assigned by top-level statements
// (which execute in the global scope).
func (a *Analyzer) collectGlobals(p *ast.Program) {
	a.globals = map[string]bool{}
	for _, d := range p.Decls {
		switch x := d.(type) {
		case *ast.GlobalDecl:
			for _, n := range x.Names {
				a.globals[n] = true
			}
		case *ast.ProcDecl:
			a.globals[x.Name] = true
		case *ast.RecordDecl:
			a.globals[x.Name] = true
		case *ast.ClassDecl:
			a.globals[x.Name] = true
			for _, f := range x.Fields {
				a.globals[f] = true
			}
			for _, m := range x.Methods {
				a.globals[m.Name] = true
			}
		default:
			// Top-level statement: its assignments create globals.
			for n := range assignedNames(x) {
				a.globals[n] = true
			}
			for n := range declaredNames(x) {
				a.globals[n] = true
			}
		}
	}
}

// newScope builds the symbol table of one procedure.
func newScope(a *Analyzer, p *ast.ProcDecl) *scope {
	sc := &scope{
		a:        a,
		params:   map[string]bool{},
		declared: map[string]bool{},
		assigned: map[string]bool{},
		kinds:    map[string]map[kind]bool{},
	}
	for _, param := range p.Params {
		sc.params[param] = true
	}
	sc.collect(p.Body)
	sc.resolveAliases()
	return sc
}

// newScopeFrom builds the symbol table of the top-level statement scope.
func newScopeFrom(a *Analyzer, p *ast.Program) *scope {
	sc := &scope{
		a:        a,
		params:   map[string]bool{},
		declared: map[string]bool{},
		assigned: map[string]bool{},
		kinds:    map[string]map[kind]bool{},
	}
	for _, d := range p.Decls {
		switch d.(type) {
		case *ast.ProcDecl, *ast.RecordDecl, *ast.GlobalDecl, *ast.ClassDecl:
		default:
			sc.collect(d)
		}
	}
	sc.resolveAliases()
	return sc
}

// collect walks a subtree recording declarations, assignment targets and
// the inferred kind of each assigned value.
func (sc *scope) collect(n ast.Node) {
	sc.roots = append(sc.roots, n)
	ast.Walk(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.VarDecl:
			for i, name := range x.Names {
				sc.declared[name] = true
				if i < len(x.Inits) && x.Inits[i] != nil {
					sc.assigned[name] = true
					if src, ok := aliasSource(x.Inits[i]); ok {
						sc.aliases = append(sc.aliases, [2]string{name, src})
					} else {
						sc.addKind(name, exprKind(x.Inits[i]))
					}
				}
			}
		case *ast.BindIn:
			sc.assigned[x.Tmp] = true
			sc.addKind(x.Tmp, exprKind(x.E))
		case *ast.Binary:
			if isAssignOp(x.Op) {
				if name, ok := identName(x.L); ok {
					sc.assigned[name] = true
					if src, ok := aliasSource(x.R); ok {
						sc.aliases = append(sc.aliases, [2]string{name, src})
					} else {
						sc.addKind(name, exprKind(x.R))
					}
				}
				if x.Op == ":=:" || x.Op == "<->" {
					if name, ok := identName(x.R); ok {
						sc.assigned[name] = true
						sc.addKind(name, kindOther)
					}
				}
			}
		}
		return true
	})
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
func (sc *scope) resolveAliases() {
	for changed := true; changed; {
		changed = false
		for _, al := range sc.aliases {
			target, src := al[0], al[1]
			for k := range sc.kinds[src] {
				if !sc.kinds[target][k] {
					sc.addKind(target, k)
					changed = true
				}
			}
		}
	}
}

func (sc *scope) addKind(name string, k kind) {
	if sc.kinds[name] == nil {
		sc.kinds[name] = map[kind]bool{}
	}
	sc.kinds[name][k] = true
}

// onlyKind reports whether every value assigned to name in this scope has
// kind k (and at least one assignment was seen).
func (sc *scope) onlyKind(name string, k kind) bool {
	ks := sc.kinds[name]
	if len(ks) == 0 {
		return false
	}
	for other := range ks {
		if other != k {
			return false
		}
	}
	return true
}

// bound reports whether name can ever be bound in this scope: parameter,
// declared local, assigned name, program global, builtin, or host-known.
func (sc *scope) bound(name string) bool {
	return sc.params[name] || sc.declared[name] || sc.assigned[name] ||
		sc.a.globals[name] || sc.a.known(name)
}

// assignedOutside reports whether name is assigned (or declared with an
// initializer) anywhere in the scope outside the given subtree.
func (sc *scope) assignedOutside(name string, exclude ast.Node) bool {
	found := false
	for _, root := range sc.roots {
		ast.Walk(root, func(m ast.Node) bool {
			if m == exclude || found {
				return false
			}
			switch x := m.(type) {
			case *ast.VarDecl:
				for i, dn := range x.Names {
					if dn == name && i < len(x.Inits) && x.Inits[i] != nil {
						found = true
					}
				}
			case *ast.BindIn:
				if x.Tmp == name {
					found = true
				}
			case *ast.Binary:
				if isAssignOp(x.Op) {
					if t, ok := identName(x.L); ok && t == name {
						found = true
					}
					if x.Op == ":=:" || x.Op == "<->" {
						if t, ok := identName(x.R); ok && t == name {
							found = true
						}
					}
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
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

// eachAssigned calls f with the simple names node n itself assigns: the
// target of an assignment operator (both operands of a swap) or the
// temporary of a bound iteration.
func eachAssigned(n ast.Node, f func(name string)) {
	switch x := n.(type) {
	case *ast.Binary:
		if isAssignOp(x.Op) {
			if name, ok := identName(x.L); ok {
				f(name)
			}
			if x.Op == ":=:" || x.Op == "<->" {
				if name, ok := identName(x.R); ok {
					f(name)
				}
			}
		}
	case *ast.BindIn:
		f(x.Tmp)
	}
}

// assignedNames collects the simple names a subtree assigns.
func assignedNames(n ast.Node) map[string]bool {
	out := map[string]bool{}
	ast.Walk(n, func(m ast.Node) bool {
		eachAssigned(m, func(name string) { out[name] = true })
		return true
	})
	return out
}

// declaredNames collects names introduced by local/static/var declarations
// in a subtree.
func declaredNames(n ast.Node) map[string]bool {
	out := map[string]bool{}
	ast.Walk(n, func(m ast.Node) bool {
		if x, ok := m.(*ast.VarDecl); ok {
			for _, name := range x.Names {
				out[name] = true
			}
		}
		return true
	})
	return out
}

// exprKind classifies the static kind of an expression's results.
func exprKind(n ast.Node) kind {
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
			// concurrency pass flags that case separately).
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
