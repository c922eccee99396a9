// Package lint is a go/analysis-style checker suite for the HOST side of
// the embedding: Go code that drives pipes, transport queues and observation
// records has invariants the Go compiler cannot see — a pipe's producer
// goroutine must be released, a closed queue accepts no more values, an
// observation record is closed. The analyzers here are purely
// syntactic (go/ast over single files, no type information and no
// golang.org/x/tools dependency), so they run anywhere the Go toolchain
// runs; cmd/junilint is the driver.
//
// A finding on a line carrying (or directly below) a "//junilint:ignore"
// comment is suppressed — the escape hatch for the cases the syntactic
// approximation cannot see through.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer hit.
type Finding struct {
	Pos   token.Position
	Check string // analyzer name
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// File is one parsed source file under analysis.
type File struct {
	Fset *token.FileSet
	Path string
	AST  *ast.File
}

// Analyzer is one named check over a single file.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*File) []Finding
}

// Analyzers returns the full suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{pipeStop, putAfterClose, inspectLeak, snapGuard}
}

// CheckSource parses src (named path for positions) and runs the suite,
// applying //junilint:ignore suppression. The entry point for tests and
// for drivers that already hold source text.
func CheckSource(path string, src []byte) ([]Finding, error) {
	fset := token.NewFileSet()
	parsed, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	f := &File{Fset: fset, Path: path, AST: parsed}
	ignored := ignoredLines(fset, parsed)
	var out []Finding
	for _, a := range Analyzers() {
		for _, fd := range a.Run(f) {
			if ignored[fd.Pos.Line] {
				continue
			}
			out = append(out, fd)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Pos.Column < out[j].Pos.Column
	})
	return out, nil
}

// ignoredLines collects the lines suppressed by //junilint:ignore: the
// comment's own line and the line below it (directive-above-statement).
func ignoredLines(fset *token.FileSet, f *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//junilint:ignore") {
				line := fset.Position(c.Pos()).Line
				out[line] = true
				out[line+1] = true
			}
		}
	}
	return out
}

// ---------- shared syntactic helpers ----------

// selCall matches a call whose function is recv.name and returns recv's
// identifier (x.Close() -> x, "Close"). Non-ident receivers return "".
func selCall(n ast.Node) (recv, name string, call *ast.CallExpr) {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return "", "", nil
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", c
	}
	return id.Name, sel.Sel.Name, c
}

// pkgCall matches a call of the form pkg.Name(...) where pkg is a plain
// identifier (the usual import form; the syntactic analyzers accept the
// package name as the type oracle).
func pkgCall(n ast.Node, pkg string) (string, *ast.CallExpr) {
	recv, name, call := selCall(n)
	if call == nil || recv != pkg {
		return "", nil
	}
	return name, call
}

func position(f *File, n ast.Node) token.Position { return f.Fset.Position(n.Pos()) }
