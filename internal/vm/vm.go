package vm

import (
	"junicon/internal/ast"
	"junicon/internal/compile"
)

// CompileExpr lowers a normalized top-level expression and wraps it in a
// Machine; drive it with m.NewFrame(). A compile.Unsupported error means
// env lacks what a construct needs (a scan environment, DefineGlobal or a
// native table) — the one thing compile refuses.
func CompileExpr(n ast.Node, env compile.Env) (*Machine, error) {
	code, err := compile.Expr(n, env)
	if err != nil {
		return nil, err
	}
	return New(code), nil
}

// CompileProc lowers a procedure declaration and wraps it in a Machine;
// each call is m.NewFrame(args...).
func CompileProc(d *ast.ProcDecl, env compile.Env) (*Machine, error) {
	code, err := compile.Proc(d, env)
	if err != nil {
		return nil, err
	}
	m := New(code)
	m.proc = true
	return m, nil
}
