// Package parser implements a recursive-descent LL(k) parser for the
// Junicon subset — Unicon's expression language extended with the
// concurrency operators of Figure 1 and native invocation (::) of §4. It
// is the analogue of the paper's "Javacc LL(k) parser for Unicon that emits
// XML" (§6); the emitted XML lives in the ast package.
//
// One deliberate Junicon-ism: following the paper's Figures 3–4 (where
// embedded code writes `chunk = []`, `t = |> {…}`, `every (c = chunk(<>s))`),
// `=` parses as assignment, synonymous with `:=`. Icon's numeric equality
// remains available as `===`/`~===`/`~=` and the ordered comparisons.
package parser

import (
	"fmt"

	"junicon/internal/ast"
	"junicon/internal/lexer"
)

// Error is a parse error with position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

// Parser consumes a token stream.
type Parser struct {
	toks []lexer.Token
	pos  int
}

// New returns a parser over src.
func New(src string) (*Parser, error) {
	toks, err := lexer.Tokens(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// ParseProgram parses a whole translation unit.
func ParseProgram(src string) (*ast.Program, error) {
	p, err := New(src)
	if err != nil {
		return nil, err
	}
	return p.Program()
}

// ParseExpression parses a single expression (trailing semicolons allowed).
func ParseExpression(src string) (ast.Node, error) {
	p, err := New(src)
	if err != nil {
		return nil, err
	}
	e, err := p.expr(0)
	if err != nil {
		return nil, err
	}
	for p.isOp(";") {
		p.next()
	}
	if !p.atEOF() {
		return nil, p.errHere("unexpected %q after expression", p.cur().Text)
	}
	return e, nil
}

func (p *Parser) cur() lexer.Token  { return p.toks[p.pos] }
func (p *Parser) atEOF() bool       { return p.cur().Kind == lexer.EOF }
func (p *Parser) next() lexer.Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) peek(off int) lexer.Token {
	if p.pos+off >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+off]
}

func (p *Parser) isOp(text string) bool {
	t := p.cur()
	return t.Kind == lexer.Op && t.Text == text
}

func (p *Parser) isKw(text string) bool {
	t := p.cur()
	return t.Kind == lexer.Keyword && t.Text == text
}

func (p *Parser) acceptOp(text string) bool {
	if p.isOp(text) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) acceptKw(text string) bool {
	if p.isKw(text) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectOp(text string) error {
	if !p.acceptOp(text) {
		return p.errHere("expected %q, found %q", text, p.cur().Text)
	}
	return nil
}

func (p *Parser) errHere(format string, args ...any) error {
	t := p.cur()
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) at() ast.Pos { return ast.Pos{Line: p.cur().Line, Col: p.cur().Col} }

func pos(t lexer.Token) ast.Pos { return ast.Pos{Line: t.Line, Col: t.Col} }

// ---------- declarations ----------

// Program parses declarations and top-level statements until EOF.
func (p *Parser) Program() (*ast.Program, error) {
	prog := &ast.Program{}
	prog.P = p.at()
	for !p.atEOF() {
		if p.acceptOp(";") {
			continue
		}
		d, err := p.decl()
		if err != nil {
			return nil, err
		}
		prog.Decls = append(prog.Decls, d)
	}
	return prog, nil
}

func (p *Parser) decl() (ast.Node, error) {
	switch {
	case p.isKw("def"), p.isKw("procedure"), p.isKw("method"):
		return p.procDecl()
	case p.isKw("record"):
		return p.recordDecl()
	case p.isKw("global"):
		return p.globalDecl()
	case p.isKw("class"):
		return p.classDecl()
	default:
		return p.statement()
	}
}

// procDecl parses `def f(a,b) { … }` (Junicon) or
// `procedure f(a,b); …; end` (Unicon).
func (p *Parser) procDecl() (*ast.ProcDecl, error) {
	kw := p.next()
	braceStyle := kw.Text == "def" || kw.Text == "method"
	name := p.cur()
	if name.Kind != lexer.Ident {
		return nil, p.errHere("expected procedure name, found %q", name.Text)
	}
	p.next()
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.isOp(")") {
		t := p.cur()
		if t.Kind != lexer.Ident {
			return nil, p.errHere("expected parameter name, found %q", t.Text)
		}
		params = append(params, t.Text)
		p.next()
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	d := &ast.ProcDecl{Name: name.Text, Params: params}
	d.P = pos(kw)
	if p.isOp("{") {
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		d.Body = body
		return d, nil
	}
	if braceStyle {
		return nil, p.errHere("expected { to open %s body", kw.Text)
	}
	// Unicon style: statements until `end`.
	p.acceptOp(";")
	body := &ast.Block{}
	body.P = p.at()
	for !p.isKw("end") {
		if p.atEOF() {
			return nil, p.errHere("missing end for procedure %s", name.Text)
		}
		if p.acceptOp(";") {
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		body.Stmts = append(body.Stmts, s)
	}
	p.next() // end
	d.Body = body
	return d, nil
}

func (p *Parser) recordDecl() (ast.Node, error) {
	kw := p.next()
	name := p.cur()
	if name.Kind != lexer.Ident {
		return nil, p.errHere("expected record name")
	}
	p.next()
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var fields []string
	for !p.isOp(")") {
		t := p.cur()
		if t.Kind != lexer.Ident {
			return nil, p.errHere("expected field name")
		}
		fields = append(fields, t.Text)
		p.next()
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	d := &ast.RecordDecl{Name: name.Text, Fields: fields}
	d.P = pos(kw)
	return d, nil
}

func (p *Parser) globalDecl() (ast.Node, error) {
	kw := p.next()
	d := &ast.GlobalDecl{}
	d.P = pos(kw)
	for {
		t := p.cur()
		if t.Kind != lexer.Ident {
			return nil, p.errHere("expected global name")
		}
		d.Names = append(d.Names, t.Text)
		p.next()
		if !p.acceptOp(",") {
			return d, nil
		}
	}
}

// classDecl parses `class Name(field, …) { methods }`.
func (p *Parser) classDecl() (ast.Node, error) {
	kw := p.next()
	name := p.cur()
	if name.Kind != lexer.Ident {
		return nil, p.errHere("expected class name")
	}
	p.next()
	d := &ast.ClassDecl{Name: name.Text}
	d.P = pos(kw)
	if p.acceptOp("(") {
		for !p.isOp(")") {
			t := p.cur()
			if t.Kind != lexer.Ident {
				return nil, p.errHere("expected class field name")
			}
			d.Fields = append(d.Fields, t.Text)
			p.next()
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	for !p.isOp("}") {
		if p.atEOF() {
			return nil, p.errHere("missing } for class %s", name.Text)
		}
		if p.acceptOp(";") {
			continue
		}
		if !(p.isKw("def") || p.isKw("method") || p.isKw("procedure")) {
			return nil, p.errHere("expected method declaration in class body")
		}
		m, err := p.procDecl()
		if err != nil {
			return nil, err
		}
		d.Methods = append(d.Methods, m)
	}
	p.next() // }
	return d, nil
}

// ---------- statements ----------

func (p *Parser) statement() (ast.Node, error) {
	switch {
	case p.isKw("local"), p.isKw("static"), p.isKw("var"):
		return p.varDecl()
	case p.isKw("initial"):
		// initial e — executed once per procedure, on the first invocation.
		kw := p.next()
		body, err := p.statementExpr()
		if err != nil {
			return nil, err
		}
		n := &ast.Initial{Body: body}
		n.P = pos(kw)
		p.acceptOp(";")
		return n, nil
	default:
		e, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		p.acceptOp(";")
		return e, nil
	}
}

func (p *Parser) varDecl() (ast.Node, error) {
	kw := p.next()
	d := &ast.VarDecl{Kind: kw.Text}
	d.P = pos(kw)
	for {
		t := p.cur()
		if t.Kind != lexer.Ident {
			return nil, p.errHere("expected variable name")
		}
		d.Names = append(d.Names, t.Text)
		p.next()
		var init ast.Node
		if p.acceptOp(":=") || p.acceptOp("=") {
			e, err := p.expr(2) // bind tighter than comma list
			if err != nil {
				return nil, err
			}
			init = e
		}
		d.Inits = append(d.Inits, init)
		if !p.acceptOp(",") {
			break
		}
	}
	p.acceptOp(";")
	return d, nil
}

// block parses a braced compound expression.
func (p *Parser) block() (*ast.Block, error) {
	open := p.next() // {
	b := &ast.Block{}
	b.P = pos(open)
	for !p.isOp("}") {
		if p.atEOF() {
			return nil, p.errHere("missing }")
		}
		if p.acceptOp(";") {
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // }
	return b, nil
}

// ---------- expressions ----------

// Binary operator precedence, loosest first, following Icon's table with &
// loosest of all. Assignment is right-associative.
var binPrec = map[string]int{
	"&":  1,
	"?":  2, // string scanning e1 ? e2
	":=": 3, "=": 3, "<-": 3, ":=:": 3, "<->": 3,
	"+:=": 3, "-:=": 3, "*:=": 3, "/:=": 3, "%:=": 3, "^:=": 3,
	"||:=": 3, "|||:=": 3, "++:=": 3, "--:=": 3, "**:=": 3, "&:=": 3,
	"<:=": 3, "<=:=": 3, ">:=": 3, ">=:=": 3, "=:=": 3, "~=:=": 3,
	"==:=": 3, "<<:=": 3, ">>:=": 3, "?:=": 3, "@:=": 3,
	"@": 4,
	// to/by handled specially at precedence 5
	"|": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7, "~=": 7,
	"<<": 7, "<<=": 7, ">>": 7, ">>=": 7, "==": 7, "~==": 7,
	"===": 7, "~===": 7,
	"||": 8, "|||": 8,
	"+": 9, "-": 9, "++": 9, "--": 9,
	"*": 10, "/": 10, "%": 10, "**": 10,
	"^":  11,
	"\\": 12,
}

const toPrec = 5

func rightAssoc(op string) bool { return binPrec[op] == 3 || op == "^" }

func (p *Parser) expr(minPrec int) (ast.Node, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		// to/by range construct.
		if p.isKw("to") && toPrec >= minPrec {
			kw := p.next()
			hi, err := p.expr(toPrec + 1)
			if err != nil {
				return nil, err
			}
			var by ast.Node
			if p.acceptKw("by") {
				by, err = p.expr(toPrec + 1)
				if err != nil {
					return nil, err
				}
			}
			tb := &ast.ToBy{Lo: left, Hi: hi, By: by}
			tb.P = pos(kw)
			left = tb
			continue
		}
		t := p.cur()
		if t.Kind != lexer.Op {
			return left, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return left, nil
		}
		p.next()
		nextMin := prec + 1
		if rightAssoc(t.Text) {
			nextMin = prec
		}
		right, err := p.expr(nextMin)
		if err != nil {
			return nil, err
		}
		op := t.Text
		if op == "=" {
			op = ":=" // Junicon assignment spelling (see package comment)
		}
		bin := &ast.Binary{Op: op, L: left, R: right}
		bin.P = pos(t)
		left = bin
	}
}

// prefix operators (and the create operators of Figure 1).
var prefixOps = map[string]bool{
	"!": true, "@": true, "^": true, "*": true, "+": true, "-": true,
	"~": true, "/": true, "\\": true, "?": true, "|": true,
	"=":  true, // =s is tab(match(s)) inside a scanning expression
	"<>": true, "|<>": true, "|>": true,
}

func (p *Parser) unary() (ast.Node, error) {
	t := p.cur()
	if t.Kind == lexer.Keyword && t.Text == "not" {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		u := &ast.Unary{Op: "not", X: x}
		u.P = pos(t)
		return u, nil
	}
	if t.Kind == lexer.Op && prefixOps[t.Text] {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		u := &ast.Unary{Op: t.Text, X: x}
		u.P = pos(t)
		return u, nil
	}
	return p.postfix()
}

func (p *Parser) postfix() (ast.Node, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isOp("("):
			open := p.next()
			args, err := p.argList(")")
			if err != nil {
				return nil, err
			}
			c := &ast.Call{Fun: x, Args: args}
			c.P = pos(open)
			x = c
		case p.isOp("["):
			open := p.next()
			i, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			if p.acceptOp(":") {
				j, err := p.expr(0)
				if err != nil {
					return nil, err
				}
				if err := p.expectOp("]"); err != nil {
					return nil, err
				}
				s := &ast.Slice{X: x, I: i, J: j}
				s.P = pos(open)
				x = s
			} else {
				if err := p.expectOp("]"); err != nil {
					return nil, err
				}
				ix := &ast.Index{X: x, I: i}
				ix.P = pos(open)
				x = ix
			}
		case p.isOp(".") && p.peek(1).Kind == lexer.Ident:
			dot := p.next()
			name := p.next()
			f := &ast.Field{X: x, Name: name.Text}
			f.P = pos(dot)
			x = f
		case p.isOp("::") && p.peek(1).Kind == lexer.Ident:
			sep := p.next()
			name := p.next()
			var args []ast.Node
			if p.acceptOp("(") {
				args, err = p.argList(")")
				if err != nil {
					return nil, err
				}
			}
			recv := x
			if id, ok := recv.(*ast.Ident); ok && id.Name == "this" {
				recv = nil // host receiver
			}
			n := &ast.NativeCall{Recv: recv, Name: name.Text, Args: args}
			n.P = pos(sep)
			x = n
		default:
			return x, nil
		}
	}
}

func (p *Parser) argList(closer string) ([]ast.Node, error) {
	var args []ast.Node
	for !p.isOp(closer) {
		a, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(closer); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *Parser) primary() (ast.Node, error) {
	t := p.cur()
	switch t.Kind {
	case lexer.Int:
		p.next()
		n := &ast.IntLit{Text: t.Text}
		n.P = pos(t)
		return n, nil
	case lexer.Real:
		p.next()
		n := &ast.RealLit{Text: t.Text}
		n.P = pos(t)
		return n, nil
	case lexer.Str:
		p.next()
		n := &ast.StrLit{Value: t.Text}
		n.P = pos(t)
		return n, nil
	case lexer.Cset:
		p.next()
		n := &ast.CsetLit{Value: t.Text}
		n.P = pos(t)
		return n, nil
	case lexer.AmpKw:
		p.next()
		n := &ast.Keyword{Name: t.Text}
		n.P = pos(t)
		return n, nil
	case lexer.Ident:
		p.next()
		n := &ast.Ident{Name: t.Text}
		n.P = pos(t)
		return n, nil
	case lexer.Keyword:
		return p.keywordExpr()
	case lexer.Op:
		switch t.Text {
		case "(":
			p.next()
			e, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "[":
			open := p.next()
			elems, err := p.argList("]")
			if err != nil {
				return nil, err
			}
			n := &ast.ListLit{Elems: elems}
			n.P = pos(open)
			return n, nil
		case "{":
			return p.block()
		}
	}
	return nil, p.errHere("unexpected %q in expression", t.Text)
}

// keywordExpr parses control constructs, which in Icon are expressions.
func (p *Parser) keywordExpr() (ast.Node, error) {
	t := p.cur()
	switch t.Text {
	case "if":
		p.next()
		cond, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		if !p.acceptKw("then") {
			return nil, p.errHere("expected then")
		}
		then, err := p.statementExpr()
		if err != nil {
			return nil, err
		}
		var els ast.Node
		// `else` may follow an optional semicolon after a braced then-part.
		save := p.pos
		for p.isOp(";") {
			p.next()
		}
		if p.acceptKw("else") {
			els, err = p.statementExpr()
			if err != nil {
				return nil, err
			}
		} else {
			p.pos = save
		}
		n := &ast.If{Cond: cond, Then: then, Else: els}
		n.P = pos(t)
		return n, nil
	case "while", "until":
		p.next()
		cond, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		var body ast.Node
		if p.acceptKw("do") {
			body, err = p.statementExpr()
			if err != nil {
				return nil, err
			}
		}
		n := &ast.While{Cond: cond, Body: body, Until: t.Text == "until"}
		n.P = pos(t)
		return n, nil
	case "every":
		p.next()
		e, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		var body ast.Node
		if p.acceptKw("do") {
			body, err = p.statementExpr()
			if err != nil {
				return nil, err
			}
		}
		n := &ast.Every{E: e, Body: body}
		n.P = pos(t)
		return n, nil
	case "repeat":
		p.next()
		body, err := p.statementExpr()
		if err != nil {
			return nil, err
		}
		n := &ast.Repeat{Body: body}
		n.P = pos(t)
		return n, nil
	case "case":
		return p.caseExpr()
	case "return":
		p.next()
		var e ast.Node
		if !p.endsExpr() {
			var err error
			e, err = p.expr(0)
			if err != nil {
				return nil, err
			}
		}
		n := &ast.Return{E: e}
		n.P = pos(t)
		return n, nil
	case "suspend":
		p.next()
		e, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		var body ast.Node
		if p.acceptKw("do") {
			body, err = p.statementExpr()
			if err != nil {
				return nil, err
			}
		}
		n := &ast.Suspend{E: e, Body: body}
		n.P = pos(t)
		return n, nil
	case "fail":
		p.next()
		n := &ast.Fail{}
		n.P = pos(t)
		return n, nil
	case "break":
		p.next()
		var e ast.Node
		if !p.endsExpr() {
			var err error
			e, err = p.expr(0)
			if err != nil {
				return nil, err
			}
		}
		n := &ast.Break{E: e}
		n.P = pos(t)
		return n, nil
	case "next":
		p.next()
		n := &ast.NextStmt{}
		n.P = pos(t)
		return n, nil
	}
	return nil, p.errHere("unexpected keyword %q in expression", t.Text)
}

// statementExpr parses a loop/branch body: a block or a single expression.
func (p *Parser) statementExpr() (ast.Node, error) {
	if p.isOp("{") {
		return p.block()
	}
	return p.expr(0)
}

// endsExpr reports whether the current token cannot start an expression
// operand (for optional return/break operands).
func (p *Parser) endsExpr() bool {
	t := p.cur()
	if t.Kind == lexer.EOF {
		return true
	}
	if t.Kind == lexer.Op {
		switch t.Text {
		case ";", "}", ")", "]", ",":
			return true
		}
	}
	if t.Kind == lexer.Keyword {
		switch t.Text {
		case "else", "do", "then", "of", "end":
			return true
		}
	}
	return false
}

func (p *Parser) caseExpr() (ast.Node, error) {
	t := p.next() // case
	subject, err := p.expr(0)
	if err != nil {
		return nil, err
	}
	if !p.acceptKw("of") {
		return nil, p.errHere("expected of")
	}
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	n := &ast.Case{Subject: subject}
	n.P = pos(t)
	for !p.isOp("}") {
		if p.atEOF() {
			return nil, p.errHere("missing } in case")
		}
		if p.acceptOp(";") {
			continue
		}
		var sel ast.Node
		if p.acceptKw("default") {
			sel = nil
		} else {
			sel, err = p.expr(0)
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(":"); err != nil {
			return nil, err
		}
		body, err := p.statementExpr()
		if err != nil {
			return nil, err
		}
		n.Clauses = append(n.Clauses, ast.CaseClause{Sel: sel, Body: body})
	}
	p.next() // }
	return n, nil
}
