package translate

import (
	"fmt"
	"strings"

	"junicon/internal/ast"
)

// expr emits a Go expression of type core.Gen for one syntax node — the
// composition-of-constructors form of Figure 5.
func (e *emitter) expr(n ast.Node) string {
	switch x := n.(type) {
	case nil:
		return "core.Unit(value.NullV)"
	case *ast.IntLit:
		return fmt.Sprintf("core.Unit(intLit(%q))", x.Text)
	case *ast.RealLit:
		return fmt.Sprintf("core.Unit(realLit(%q))", x.Text)
	case *ast.StrLit:
		return fmt.Sprintf("core.Unit(value.String(%q))", x.Value)
	case *ast.CsetLit:
		return fmt.Sprintf("core.Unit(value.NewCset(%q))", x.Value)
	case *ast.Keyword:
		switch x.Name {
		case "null":
			return "core.Unit(value.NullV)"
		case "fail":
			return "core.Empty()"
		case "lcase":
			return "core.Unit(value.CsetLcase)"
		case "ucase":
			return "core.Unit(value.CsetUcase)"
		case "digits":
			return "core.Unit(value.CsetDigits)"
		case "letters":
			return "core.Unit(value.CsetLetters)"
		default:
			e.errf("unknown keyword &%s", x.Name)
			return "core.Empty()"
		}
	case *ast.Ident:
		return fmt.Sprintf("core.Unit(%s)", e.cellRef(x.Name))
	case *ast.TmpRef:
		return fmt.Sprintf("core.Unit(%s)", e.cellRef(x.Name))
	case *ast.ListLit:
		elems := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			elems[i] = e.expr(el)
		}
		return fmt.Sprintf("core.ListOf(%s)", strings.Join(elems, ", "))

	case *ast.FlatProduct:
		terms := make([]string, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = e.expr(t)
		}
		return fmt.Sprintf("core.Product(\n%s)", indentArgs(terms))
	case *ast.BindIn:
		return fmt.Sprintf("core.In(%s, %s)", e.cellRef(x.Tmp), e.expr(x.E))

	case *ast.Binary:
		return e.binary(x)
	case *ast.Unary:
		return e.unary(x)
	case *ast.ToBy:
		by := "nil"
		if x.By != nil {
			by = e.expr(x.By)
		}
		return fmt.Sprintf("core.ToBy(%s, %s, %s)", e.expr(x.Lo), e.expr(x.Hi), by)

	case *ast.Call:
		args := make([]string, 0, len(x.Args)+1)
		args = append(args, e.expr(x.Fun))
		for _, a := range x.Args {
			args = append(args, e.expr(a))
		}
		return fmt.Sprintf("core.Invoke(%s)", strings.Join(args, ", "))
	case *ast.NativeCall:
		args := make([]string, 0, len(x.Args)+2)
		args = append(args, fmt.Sprintf("core.Unit(native(%q))", x.Name))
		if x.Recv != nil {
			args = append(args, e.expr(x.Recv))
		}
		for _, a := range x.Args {
			args = append(args, e.expr(a))
		}
		return fmt.Sprintf("core.Invoke(%s)", strings.Join(args, ", "))
	case *ast.Index:
		return fmt.Sprintf("core.IndexGen(%s, %s)", e.expr(x.X), e.expr(x.I))
	case *ast.Slice:
		return fmt.Sprintf("core.SectionGen(%s, %s, %s)", e.expr(x.X), e.expr(x.I), e.expr(x.J))
	case *ast.Field:
		return fmt.Sprintf("core.FieldGen(%s, %q)", e.expr(x.X), x.Name)

	case *ast.Block:
		if len(x.Stmts) == 0 {
			return "core.Unit(value.NullV)"
		}
		stmts := make([]string, len(x.Stmts))
		for i, s := range x.Stmts {
			stmts[i] = e.expr(s)
		}
		return fmt.Sprintf("core.Sequence(\n%s)", indentArgs(stmts))
	case *ast.VarDecl:
		// Cells already declared at procedure level; emit the
		// (re)initialization as a deferred unit.
		parts := make([]string, 0, len(x.Names))
		for i, name := range x.Names {
			init := "core.Unit(value.NullV)"
			if x.Inits[i] != nil {
				init = e.expr(x.Inits[i])
			}
			parts = append(parts, fmt.Sprintf("initCell(%s, %s)", e.cellRef(name), init))
		}
		if len(parts) == 1 {
			return parts[0]
		}
		return fmt.Sprintf("core.Sequence(\n%s)", indentArgs(parts))
	case *ast.If:
		els := "nil"
		if x.Else != nil {
			els = e.expr(x.Else)
		}
		return fmt.Sprintf("core.IfThen(%s, %s, %s)", e.expr(x.Cond), e.expr(x.Then), els)
	case *ast.While:
		body := "nil"
		if x.Body != nil {
			body = e.expr(x.Body)
		}
		if x.Until {
			return fmt.Sprintf("core.Until(%s, %s)", e.expr(x.Cond), body)
		}
		return fmt.Sprintf("core.While(%s, %s)", e.expr(x.Cond), body)
	case *ast.Every:
		body := "nil"
		if x.Body != nil {
			body = e.expr(x.Body)
		}
		return fmt.Sprintf("core.Every(%s, %s)", e.expr(x.E), body)
	case *ast.Repeat:
		return fmt.Sprintf("core.RepeatLoop(%s)", e.expr(x.Body))
	case *ast.Case:
		var clauses []string
		deflt := "nil"
		for _, c := range x.Clauses {
			if c.Sel == nil {
				deflt = e.expr(c.Body)
				continue
			}
			clauses = append(clauses,
				fmt.Sprintf("{Sel: %s, Body: %s}", e.expr(c.Sel), e.expr(c.Body)))
		}
		return fmt.Sprintf("core.Case(%s, []core.CaseClause{%s}, %s)",
			e.expr(x.Subject), strings.Join(clauses, ", "), deflt)
	case *ast.Break:
		arg := "nil"
		if x.E != nil {
			arg = e.expr(x.E)
		}
		return fmt.Sprintf("core.BreakGen(%s)", arg)
	case *ast.NextStmt:
		return "core.NextGen()"
	case *ast.Fail:
		return "core.Empty()"
	case *ast.Return, *ast.Suspend:
		e.errf("return/suspend in expression position at %s", fmtPos(n.Pos()))
		return "core.Empty()"
	}
	e.errf("cannot translate node %T at %s", n, fmtPos(n.Pos()))
	return "core.Empty()"
}

func fmtPos(p ast.Pos) string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// cellRef emits the Go expression denoting a variable's reified cell: a
// procedure cell when local, otherwise a global resolution.
func (e *emitter) cellRef(name string) string {
	if e.scope[name] {
		return cell(name)
	}
	return fmt.Sprintf("resolve(%q)", name)
}

// indentArgs lays out multi-line constructor arguments; the emitted file is
// passed through go/format, so only syntactic validity matters here.
func indentArgs(args []string) string {
	return strings.Join(args, ",\n") + ","
}

func (e *emitter) binary(x *ast.Binary) string {
	switch x.Op {
	case "&":
		return fmt.Sprintf("core.Product(%s, %s)", e.expr(x.L), e.expr(x.R))
	case "|":
		return fmt.Sprintf("core.Alt(%s, %s)", e.expr(x.L), e.expr(x.R))
	case ":=":
		if ref, ok := e.directCell(x.L); ok {
			return fmt.Sprintf("core.AssignVar(%s, %s)", ref, e.expr(x.R))
		}
		return fmt.Sprintf("core.Assign(%s, %s)", e.lvalue(x.L), e.expr(x.R))
	case "<-":
		return fmt.Sprintf("core.RevAssignTo(%s, %s)", e.lvalue(x.L), e.expr(x.R))
	case ":=:":
		return fmt.Sprintf("core.SwapTo(%s, %s)", e.lvalue(x.L), e.lvalue(x.R))
	case "<->":
		return fmt.Sprintf("core.RevSwapTo(%s, %s)", e.lvalue(x.L), e.lvalue(x.R))
	case "@":
		return fmt.Sprintf("core.ActivateGen(%s, %s)", e.expr(x.L), e.expr(x.R))
	case "\\":
		return fmt.Sprintf("core.LimitGen(%s, %s)", e.expr(x.L), e.expr(x.R))
	case "?":
		return fmt.Sprintf(
			"core.ScanExpr(scanHolder, %s, func() core.Gen {\n\treturn %s\n})",
			e.expr(x.L), e.expr(x.R))
	}
	if fn, ok := arithName(x.Op); ok {
		return fmt.Sprintf("core.Op2(%s, %s, %s)", fn, e.expr(x.L), e.expr(x.R))
	}
	if fn, ok := compareName(x.Op); ok {
		return fmt.Sprintf("core.Cmp2(%s, %s, %s)", fn, e.expr(x.L), e.expr(x.R))
	}
	if len(x.Op) > 2 && strings.HasSuffix(x.Op, ":=") {
		base := x.Op[:len(x.Op)-2]
		if fn, ok := arithName(base); ok {
			return fmt.Sprintf("core.AugAssignTo(%s, %s, %s)", fn, e.lvalue(x.L), e.expr(x.R))
		}
		if fn, ok := compareName(base); ok {
			return fmt.Sprintf("core.CmpAugAssignTo(%s, %s, %s)", fn, e.lvalue(x.L), e.expr(x.R))
		}
	}
	e.errf("unknown operator %s at %s", x.Op, fmtPos(x.P))
	return "core.Empty()"
}

// directCell reports a plain identifier target's cell expression.
func (e *emitter) directCell(n ast.Node) (string, bool) {
	switch t := n.(type) {
	case *ast.Ident:
		return e.cellRef(t.Name), true
	case *ast.TmpRef:
		return e.cellRef(t.Name), true
	}
	return "", false
}

// lvalue emits a generator of assignable variables for a target.
func (e *emitter) lvalue(n ast.Node) string {
	switch t := n.(type) {
	case *ast.Ident:
		return fmt.Sprintf("core.Unit(%s)", e.cellRef(t.Name))
	case *ast.TmpRef:
		return fmt.Sprintf("core.Unit(%s)", e.cellRef(t.Name))
	case *ast.Index:
		return fmt.Sprintf("core.IndexGen(%s, %s)", e.expr(t.X), e.expr(t.I))
	case *ast.Field:
		return fmt.Sprintf("core.FieldGen(%s, %q)", e.expr(t.X), t.Name)
	case *ast.Unary:
		if t.Op == "!" {
			return fmt.Sprintf("core.Promote(%s)", e.expr(t.X))
		}
	}
	return e.expr(n)
}

var arithGoNames = map[string]string{
	"+": "value.Add", "-": "value.Sub", "*": "value.Mul", "/": "value.Div",
	"%": "value.Mod", "^": "value.Pow", "||": "value.Concat",
	"|||": "value.ListConcat", "++": "value.Union", "--": "value.Difference",
	"**": "value.Intersection",
}

var compareGoNames = map[string]string{
	"<": "value.NumLt", "<=": "value.NumLe", ">": "value.NumGt",
	">=": "value.NumGe", "~=": "value.NumNe", "<<": "value.StrLt",
	"<<=": "value.StrLe", ">>": "value.StrGt", ">>=": "value.StrGe",
	"==": "value.StrEq", "~==": "value.StrNe", "===": "value.Same",
	"~===": "value.NotSame",
}

func arithName(op string) (string, bool)   { n, ok := arithGoNames[op]; return n, ok }
func compareName(op string) (string, bool) { n, ok := compareGoNames[op]; return n, ok }

func (e *emitter) unary(x *ast.Unary) string {
	switch x.Op {
	case "!":
		return fmt.Sprintf("core.Promote(%s)", e.expr(x.X))
	case "@":
		return fmt.Sprintf("core.ActivateGen(nil, %s)", e.expr(x.X))
	case "^":
		return fmt.Sprintf("core.Op1(core.Refresh, %s)", e.expr(x.X))
	case "*":
		return fmt.Sprintf("core.SizeOp(%s)", e.expr(x.X))
	case "-":
		return fmt.Sprintf("core.Op1(value.Neg, %s)", e.expr(x.X))
	case "+":
		return fmt.Sprintf("core.Op1(value.Pos, %s)", e.expr(x.X))
	case "~":
		return fmt.Sprintf("core.Op1(value.Complement, %s)", e.expr(x.X))
	case "/":
		return fmt.Sprintf("core.NullTest(%s)", e.expr(x.X))
	case "\\":
		return fmt.Sprintf("core.NonNullTest(%s)", e.expr(x.X))
	case "?":
		return fmt.Sprintf("core.RandomGen(%s)", e.expr(x.X))
	case "=":
		return fmt.Sprintf(
			"core.Apply1(func(v value.V) core.Gen { return builtins[\"tabMatch\"].(*value.Proc).Call(v) }, %s)",
			e.expr(x.X))
	case "|":
		return fmt.Sprintf("core.RepeatAlt(%s)", e.expr(x.X))
	case "not":
		return fmt.Sprintf("core.Not(%s)", e.expr(x.X))
	case "<>":
		return fmt.Sprintf(
			"core.Defer(func() core.Gen {\n\treturn core.Unit(core.NewFirstClass(%s))\n})",
			e.expr(x.X))
	case "|<>":
		return e.coexprCreate(x.X, false)
	case "|>":
		return e.coexprCreate(x.X, true)
	}
	e.errf("unknown unary operator %s", x.Op)
	return "core.Empty()"
}

// coexprCreate synthesizes co-expression (and pipe) creation with the
// shadowed environment of §5D. Referenced procedure cells are snapshotted
// and the body is emitted against the _s (shadow) cells — the chunk_s_r /
// f_s_r pattern of Figure 5.
func (e *emitter) coexprCreate(body ast.Node, piped bool) string {
	names := e.referencedCells(body)
	snapshot := make([]string, len(names))
	for i, name := range names {
		snapshot[i] = fmt.Sprintf("%s.Get()", cell(name))
	}
	// Emit the body against shadow cells.
	saved := e.scope
	shadow := map[string]bool{}
	for k, v := range saved {
		shadow[k] = v
	}
	e.scope = shadow
	// Alias: inside the closure, names refer to shadow cells declared from
	// env; implement by scoping names to local cells named <name>_s.
	var decl strings.Builder
	for i, name := range names {
		fmt.Fprintf(&decl, "\t\t%s := env[%d]\n", cell(name+"_s"), i)
	}
	inner := e.exprRenamed(body, names)
	e.scope = saved

	create := fmt.Sprintf(
		"coexpr.New([]value.V{%s}, func(env []*value.Var) core.Gen {\n%s\t\treturn %s\n\t})",
		strings.Join(snapshot, ", "), decl.String(), inner)
	if !piped {
		return fmt.Sprintf("core.Defer(func() core.Gen {\n\treturn core.Unit(%s)\n})", create)
	}
	return fmt.Sprintf(
		"core.Defer(func() core.Gen {\n\tp := pipe.New(%s, pipe.DefaultBuffer)\n\tp.StartEager()\n\treturn core.Unit(p)\n})",
		create)
}

// referencedCells lists procedure cells the body references, first-use
// order.
func (e *emitter) referencedCells(n ast.Node) []string {
	var names []string
	seen := map[string]bool{}
	ast.Walk(n, func(m ast.Node) bool {
		var name string
		switch id := m.(type) {
		case *ast.Ident:
			name = id.Name
		case *ast.TmpRef:
			name = id.Name
		default:
			return true
		}
		if !seen[name] && e.scope[name] {
			seen[name] = true
			names = append(names, name)
		}
		return true
	})
	return names
}

// exprRenamed emits body with the given names redirected to their shadow
// cells (name_s).
func (e *emitter) exprRenamed(body ast.Node, names []string) string {
	renamed := renameIdents(body, names)
	for _, n := range names {
		e.scope[n+"_s"] = true
	}
	return e.expr(renamed)
}

// renameIdents returns a copy of n with the given identifiers renamed to
// their _s shadow forms.
func renameIdents(n ast.Node, names []string) ast.Node {
	set := map[string]bool{}
	for _, name := range names {
		set[name] = true
	}
	return rename(n, set)
}
