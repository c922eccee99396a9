package lint

import (
	"fmt"
	"go/ast"
)

// leakRule is one row of the leak engine: a value that a creator call of
// package pkg returns owes a release, and a function that binds it to a
// variable must pay it (a releasing method in receiver position) or pass
// the value on. The engine makes two passes over each function body:
//
//   - creations: v := pkg.Creator(…), possibly under a method chain, binds
//     v; a creation whose result is dropped (statement position, or
//     assigned to _) is a finding on the spot — a value nobody holds can
//     never be released;
//   - uses: a releaser in receiver position releases; an aliaser hands the
//     same value onward (its result carries the duty), as does any other
//     appearance of the variable (argument, return value, composite
//     literal, channel send, field store) — whoever received it owns the
//     release. Other methods and nil comparisons (`if v != nil`) are
//     neutral.
type leakRule struct {
	pkg       string
	creators  map[string]bool
	releasers map[string]bool
	aliasers  map[string]bool
	leak      string // finding for a variable neither released nor passed on; %[1]s is its name
	drop      string // finding for a dropped creation, after "pkg.Creator result discarded: "
}

// leakCheck makes an analyzer of a rule row.
func leakCheck(name, doc string, r leakRule) *Analyzer {
	return &Analyzer{Name: name, Doc: doc, Run: func(f *File) []Finding {
		var out []Finding
		for _, decl := range f.AST.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				out = append(out, r.body(f, name, fn.Body)...)
			}
		}
		return out
	}}
}

func (r leakRule) body(f *File, check string, body *ast.BlockStmt) []Finding {
	var out []Finding
	dropped := func(creator string, site ast.Node) {
		out = append(out, Finding{Pos: position(f, site), Check: check,
			Msg: fmt.Sprintf("%s.%s result discarded: %s", r.pkg, creator, r.drop)})
	}

	// Pass 1: creations. The LHS ident nodes are remembered so pass 2
	// does not read them as uses.
	created := map[string]ast.Node{} // name -> creation site
	neutral := map[ast.Node]bool{}   // ident nodes that are not value uses
	bind := func(lhs []ast.Expr, rhs []ast.Expr) {
		for i, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			neutral[id] = true
			if i >= len(rhs) {
				continue
			}
			switch creator := r.creation(rhs[i]); {
			case creator == "":
			case id.Name == "_":
				dropped(creator, rhs[i])
			case created[id.Name] == nil:
				created[id.Name] = rhs[i]
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				bind(x.Lhs, x.Rhs)
			} else {
				bind(x.Lhs, nil)
			}
		case *ast.ValueSpec:
			var lhs []ast.Expr
			for _, id := range x.Names {
				lhs = append(lhs, id)
			}
			bind(lhs, x.Values)
		case *ast.ExprStmt:
			// Only a bare creation is a discard; a chained
			// pkg.Creator(…).Release() releases inline.
			if name, call := pkgCall(x.X, r.pkg); call != nil && r.creators[name] {
				dropped(name, x.X)
			}
		}
		return true
	})
	if len(created) == 0 {
		return out
	}

	// Pass 2: uses. Preorder visits a selector or comparison before the
	// ident under it, so receiver and nil-comparison positions are marked
	// neutral before the ident is classified.
	released := map[string]bool{}
	escaped := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && created[id.Name] != nil {
				neutral[id] = true
				switch {
				case r.releasers[x.Sel.Name]:
					released[id.Name] = true
				case r.aliasers[x.Sel.Name]:
					escaped[id.Name] = true
				}
			}
		case *ast.BinaryExpr:
			if isNil(x.X) != isNil(x.Y) {
				for _, side := range []ast.Expr{x.X, x.Y} {
					if id, ok := side.(*ast.Ident); ok && created[id.Name] != nil {
						neutral[id] = true
					}
				}
			}
		case *ast.Ident:
			if !neutral[x] && created[x.Name] != nil {
				escaped[x.Name] = true
			}
		}
		return true
	})

	for name, site := range created {
		if !released[name] && !escaped[name] {
			out = append(out, Finding{Pos: position(f, site), Check: check, Msg: fmt.Sprintf(r.leak, name)})
		}
	}
	return out
}

// creation returns the name of the creator called in e (possibly under a
// method chain like pipe.FromGen(g, 8).OnPool(pl)), or "". A creation
// inside a nested function literal belongs to that literal's scope.
func (r leakRule) creation(e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if name, call := pkgCall(n, r.pkg); call != nil && r.creators[name] {
			found = name
		}
		_, isLit := n.(*ast.FuncLit)
		return found == "" && !isLit
	})
	return found
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
