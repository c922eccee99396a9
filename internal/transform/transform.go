// Package transform implements the normalization of primary expressions
// (§5A): flattening nested generator expressions into products of bound
// iterators over compiler-introduced temporaries, making iteration explicit
// so that the residual expressions can be evaluated by mechanisms native to
// the translation target.
//
// The §5A rewriting, for the running example:
//
//	e(ex,ey).c[ei]  →  (f in ⟦e⟧) & (x in ⟦ex⟧) & (y in ⟦ey⟧)
//	                   & (o in !f(x,y)) & (i in ⟦ei⟧) & (j in !o.c[i])
//
// Simple operands — identifiers, literals, temporaries — are left in place,
// preserving "simple method invocations such as o.f(x,y) largely unchanged"
// so native invocation survives the migration. Hoisting only happens within
// one primary: control constructs, products, alternation and the other
// sequence-level forms are boundaries that are normalized recursively but
// never flattened across (their operands keep their own evaluation
// discipline).
//
// Normalize is idempotent, and the interp package evaluates raw and
// normalized trees identically — the operational-semantics check that the
// rewriting is meaning-preserving.
package transform

import (
	"fmt"

	"junicon/internal/ast"
)

// Normalizer rewrites syntax trees to normal form. The zero value is ready
// to use; a single Normalizer yields distinct temporaries across calls.
type Normalizer struct {
	tmpN int
}

// fresh allocates a temporary name in the paper's x_N style.
func (nz *Normalizer) fresh() string {
	name := fmt.Sprintf("x_%d", nz.tmpN)
	nz.tmpN++
	return name
}

// Normalize rewrites any node to normal form.
func Normalize(n ast.Node) ast.Node {
	nz := &Normalizer{}
	return nz.Normalize(n)
}

// Normalize rewrites any node to normal form.
func (nz *Normalizer) Normalize(n ast.Node) ast.Node {
	switch x := n.(type) {
	case nil:
		return nil
	case *ast.Program:
		out := &ast.Program{Decls: make([]ast.Node, len(x.Decls))}
		out.P = x.P
		for i, d := range x.Decls {
			out.Decls[i] = nz.Normalize(d)
		}
		return out
	case *ast.ProcDecl:
		out := &ast.ProcDecl{Name: x.Name, Params: x.Params}
		out.P = x.P
		out.Body = nz.Normalize(x.Body).(*ast.Block)
		return out
	case *ast.ClassDecl:
		out := &ast.ClassDecl{Name: x.Name, Fields: x.Fields}
		out.P = x.P
		for _, m := range x.Methods {
			out.Methods = append(out.Methods, nz.Normalize(m).(*ast.ProcDecl))
		}
		return out
	case *ast.RecordDecl, *ast.GlobalDecl, *ast.Fail, *ast.NextStmt:
		return n
	case *ast.Block:
		out := &ast.Block{Stmts: make([]ast.Node, len(x.Stmts))}
		out.P = x.P
		for i, s := range x.Stmts {
			out.Stmts[i] = nz.Normalize(s)
		}
		return out
	case *ast.VarDecl:
		out := &ast.VarDecl{Kind: x.Kind, Names: x.Names, Inits: make([]ast.Node, len(x.Inits))}
		out.P = x.P
		for i, init := range x.Inits {
			out.Inits[i] = nz.Normalize(init)
		}
		return out
	case *ast.Initial:
		out := &ast.Initial{Body: nz.Normalize(x.Body)}
		out.P = x.P
		return out
	case *ast.If:
		out := &ast.If{Cond: nz.Normalize(x.Cond), Then: nz.Normalize(x.Then), Else: nz.Normalize(x.Else)}
		out.P = x.P
		return out
	case *ast.While:
		out := &ast.While{Cond: nz.Normalize(x.Cond), Body: nz.Normalize(x.Body), Until: x.Until}
		out.P = x.P
		return out
	case *ast.Every:
		out := &ast.Every{E: nz.Normalize(x.E), Body: nz.Normalize(x.Body)}
		out.P = x.P
		return out
	case *ast.Repeat:
		out := &ast.Repeat{Body: nz.Normalize(x.Body)}
		out.P = x.P
		return out
	case *ast.Case:
		out := &ast.Case{Subject: nz.Normalize(x.Subject)}
		out.P = x.P
		for _, c := range x.Clauses {
			out.Clauses = append(out.Clauses, ast.CaseClause{
				Sel:  nz.Normalize(c.Sel),
				Body: nz.Normalize(c.Body),
			})
		}
		return out
	case *ast.Return:
		out := &ast.Return{E: nz.Normalize(x.E)}
		out.P = x.P
		return out
	case *ast.Suspend:
		out := &ast.Suspend{E: nz.Normalize(x.E), Body: nz.Normalize(x.Body)}
		out.P = x.P
		return out
	case *ast.Break:
		out := &ast.Break{E: nz.Normalize(x.E)}
		out.P = x.P
		return out
	case *ast.Binary:
		switch x.Op {
		case "&", "|", "?":
			// Sequence-level operators (and scanning, whose body must run
			// inside the scanning environment) keep their structure.
			out := &ast.Binary{Op: x.Op, L: nz.Normalize(x.L), R: nz.Normalize(x.R)}
			out.P = x.P
			return out
		}
		return nz.primary(n)
	default:
		return nz.primary(n)
	}
}

// primary flattens one primary expression into a product of bound
// iterators, or returns it unchanged when no hoisting was needed.
func (nz *Normalizer) primary(n ast.Node) ast.Node {
	binds, atom := nz.flat(n)
	if len(binds) == 0 {
		return atom
	}
	fp := &ast.FlatProduct{Terms: append(binds, atom)}
	fp.P = n.Pos()
	return fp
}

// atomic reports whether a node may be left in place inside a primary.
// Keywords are NOT atomic: &pos and &subject are stateful variables, so
// leaving them in place would reorder their evaluation relative to hoisted
// siblings — the paper's rewriting hoists every operand in order.
func atomic(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.Ident, *ast.TmpRef, *ast.IntLit, *ast.RealLit, *ast.StrLit,
		*ast.CsetLit:
		return true
	case *ast.Field:
		return atomic(x.X)
	default:
		return false
	}
}

// flat decomposes a primary into hoisted bound iterators plus a residual
// atom. Operands that are themselves primaries flatten in line; operands
// with their own evaluation discipline (control constructs, products,
// alternation, blocks, create expressions) are normalized whole and bound
// to a temporary.
func (nz *Normalizer) flat(n ast.Node) (binds []ast.Node, atom ast.Node) {
	switch x := n.(type) {
	case *ast.Keyword:
		// A keyword is a valid final term on its own; it only needs
		// hoisting in operand position (see operand), where evaluation
		// order relative to hoisted siblings matters.
		return nil, n
	case *ast.Binary:
		switch x.Op {
		case ":=", "<-":
			// Assignment targets stay in place (they must denote
			// variables); sources flatten.
			sb, sa := nz.operand(x.R)
			out := &ast.Binary{Op: x.Op, L: nz.lvalue(x.L, &sb), R: sa}
			out.P = x.P
			return sb, out
		case ":=:", "<->":
			out := &ast.Binary{Op: x.Op, L: nz.lvalue(x.L, &binds), R: nz.lvalue(x.R, &binds)}
			out.P = x.P
			return binds, out
		case "&", "|", "?":
			// Sequence-level: bind as a unit.
			return nz.bindWhole(n)
		case "\\":
			// Limitation e \ n applies to the expression's whole result
			// sequence: the left operand must not be hoisted into a bound
			// iterator or the limit would apply per operand value.
			rb, ra := nz.operand(x.R)
			out := &ast.Binary{Op: "\\", L: nz.Normalize(x.L), R: ra}
			out.P = x.P
			return rb, out
		default:
			if len(x.Op) > 2 && x.Op[len(x.Op)-2:] == ":=" {
				// Augmented assignment.
				sb, sa := nz.operand(x.R)
				out := &ast.Binary{Op: x.Op, L: nz.lvalue(x.L, &sb), R: sa}
				out.P = x.P
				return sb, out
			}
			lb, la := nz.operand(x.L)
			rb, ra := nz.operand(x.R)
			out := &ast.Binary{Op: x.Op, L: la, R: ra}
			out.P = x.P
			return append(lb, rb...), out
		}
	case *ast.Unary:
		switch x.Op {
		case "<>", "|<>", "|>":
			// Create expressions capture their body unevaluated.
			out := &ast.Unary{Op: x.Op, X: nz.Normalize(x.X)}
			out.P = x.P
			return nil, out
		case "|", "not":
			// Repeated alternation and negation consume the operand's
			// whole result sequence — hoisting would change cardinality
			// (|x over a bound value cycles forever) or invert failure.
			out := &ast.Unary{Op: x.Op, X: nz.Normalize(x.X)}
			out.P = x.P
			return nil, out
		}
		xb, xa := nz.operand(x.X)
		out := &ast.Unary{Op: x.Op, X: xa}
		out.P = x.P
		return xb, out
	case *ast.ToBy:
		lb, la := nz.operand(x.Lo)
		hb, ha := nz.operand(x.Hi)
		var bb []ast.Node
		var ba ast.Node
		if x.By != nil {
			bb, ba = nz.operand(x.By)
		}
		out := &ast.ToBy{Lo: la, Hi: ha, By: ba}
		out.P = x.P
		binds = append(append(lb, hb...), bb...)
		return binds, out
	case *ast.Call:
		fb, fa := nz.operand(x.Fun)
		binds = fb
		args := make([]ast.Node, len(x.Args))
		for i, a := range x.Args {
			ab, aa := nz.operand(a)
			binds = append(binds, ab...)
			args[i] = aa
		}
		out := &ast.Call{Fun: fa, Args: args}
		out.P = x.P
		return binds, out
	case *ast.NativeCall:
		var ra ast.Node
		if x.Recv != nil {
			var rb []ast.Node
			rb, ra = nz.operand(x.Recv)
			binds = rb
		}
		args := make([]ast.Node, len(x.Args))
		for i, a := range x.Args {
			ab, aa := nz.operand(a)
			binds = append(binds, ab...)
			args[i] = aa
		}
		out := &ast.NativeCall{Recv: ra, Name: x.Name, Args: args}
		out.P = x.P
		return binds, out
	case *ast.Index:
		xb, xa := nz.operand(x.X)
		ib, ia := nz.operand(x.I)
		out := &ast.Index{X: xa, I: ia}
		out.P = x.P
		return append(xb, ib...), out
	case *ast.Slice:
		xb, xa := nz.operand(x.X)
		ib, ia := nz.operand(x.I)
		jb, ja := nz.operand(x.J)
		out := &ast.Slice{X: xa, I: ia, J: ja}
		out.P = x.P
		return append(append(xb, ib...), jb...), out
	case *ast.Field:
		xb, xa := nz.operand(x.X)
		out := &ast.Field{X: xa, Name: x.Name}
		out.P = x.P
		return xb, out
	case *ast.ListLit:
		elems := make([]ast.Node, len(x.Elems))
		for i, e := range x.Elems {
			eb, ea := nz.operand(e)
			binds = append(binds, eb...)
			elems[i] = ea
		}
		out := &ast.ListLit{Elems: elems}
		out.P = x.P
		return binds, out
	case *ast.FlatProduct:
		// Already normal: keep (idempotence).
		return nil, nz.renormalizeFlat(x)
	case *ast.BindIn:
		inner := nz.Normalize(x.E)
		out := &ast.BindIn{Tmp: x.Tmp, E: inner}
		out.P = x.P
		return nil, out
	default:
		if atomic(n) {
			return nil, n
		}
		// Control constructs, blocks, etc.: normalize whole, bind.
		return nz.bindWhole(n)
	}
}

// operand prepares one operand of a primary: atoms stay, nested primaries
// flatten in line, anything else is hoisted into (tmp in ⟦e⟧).
func (nz *Normalizer) operand(n ast.Node) ([]ast.Node, ast.Node) {
	if n == nil {
		return nil, nil
	}
	if atomic(n) {
		return nil, n
	}
	switch x := n.(type) {
	case *ast.Field:
		// Field access is single-valued; flatten its base in line and keep
		// the access itself in place (the §5A final term keeps o.c[i]).
		return nz.flat(n)
	case *ast.Unary:
		switch x.Op {
		case "<>", "|<>", "|>":
			out := &ast.Unary{Op: x.Op, X: nz.Normalize(x.X)}
			out.P = x.P
			return nil, out
		}
	case *ast.Call, *ast.NativeCall, *ast.Index, *ast.Slice, *ast.ToBy,
		*ast.ListLit, *ast.Binary:
	default:
		return nz.bindWhole(n)
	}
	// Nested generator-producing primary or operation: hoist its own
	// binds, then bind its residual to a temporary so the enclosing
	// operation sees a bound value — (o in !f(x,y)) in the §5A example.
	binds, atom := nz.flat(n)
	return nz.bindTmp(binds, atom, n.Pos())
}

// bindWhole normalizes n as a self-contained expression and binds it.
func (nz *Normalizer) bindWhole(n ast.Node) ([]ast.Node, ast.Node) {
	return nz.bindTmp(nil, nz.Normalize(n), n.Pos())
}

// bindTmp appends (tmp in e) to binds for a fresh temporary and returns
// the reference to it.
func (nz *Normalizer) bindTmp(binds []ast.Node, e ast.Node, pos ast.Pos) ([]ast.Node, ast.Node) {
	tmp := nz.fresh()
	bi := &ast.BindIn{Tmp: tmp, E: e}
	bi.P = pos
	ref := &ast.TmpRef{Name: tmp}
	ref.P = pos
	return append(binds, bi), ref
}

// lvalue prepares an assignment target: identifiers, temporaries, fields,
// and subscripts stay as reference-producing forms, with their own operand
// pieces hoisted into binds.
func (nz *Normalizer) lvalue(n ast.Node, binds *[]ast.Node) ast.Node {
	switch x := n.(type) {
	case *ast.Ident, *ast.TmpRef, *ast.Keyword:
		// Keyword targets (&pos := …, &subject := …) must stay in place:
		// hoisting would bind their value and assign to a temporary.
		return n
	case *ast.Index:
		xb, xa := nz.operand(x.X)
		ib, ia := nz.operand(x.I)
		*binds = append(append(*binds, xb...), ib...)
		out := &ast.Index{X: xa, I: ia}
		out.P = x.P
		return out
	case *ast.Field:
		xb, xa := nz.operand(x.X)
		*binds = append(*binds, xb...)
		out := &ast.Field{X: xa, Name: x.Name}
		out.P = x.P
		return out
	case *ast.Unary:
		if x.Op == "!" {
			// every !L := 0: element references are assignable.
			xb, xa := nz.operand(x.X)
			*binds = append(*binds, xb...)
			out := &ast.Unary{Op: "!", X: xa}
			out.P = x.P
			return out
		}
	}
	// General expression target: normalize; it must produce variables.
	return nz.Normalize(n)
}

// renormalizeFlat re-applies normalization inside an already-flat product.
func (nz *Normalizer) renormalizeFlat(x *ast.FlatProduct) ast.Node {
	out := &ast.FlatProduct{Terms: make([]ast.Node, len(x.Terms))}
	out.P = x.P
	for i, t := range x.Terms {
		if bi, ok := t.(*ast.BindIn); ok {
			nb := &ast.BindIn{Tmp: bi.Tmp, E: nz.Normalize(bi.E)}
			nb.P = bi.P
			out.Terms[i] = nb
			continue
		}
		out.Terms[i] = nz.Normalize(t)
	}
	return out
}
