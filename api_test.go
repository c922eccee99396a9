package junicon_test

import (
	"bytes"
	"go/ast"
	"go/doc"
	goparser "go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestAPIFile: api.txt is the package's exported surface, one sorted line
// per exported name with its signature, as go/doc reads the package. A
// name added, removed or changed fails here until the file follows
// (go test -run TestAPIFile -update .).
func TestAPIFile(t *testing.T) {
	got := apiLines(t)
	if *update {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("%v (go test -run TestAPIFile -update .)", err)
	}
	if got != string(want) {
		t.Errorf("exported surface changed (go test -run TestAPIFile -update . and review the diff)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// apiLines renders the package's exported declarations: funcs and methods
// without bodies, types by their definition (struct and interface types
// by kind only), constants and variables by their spec.
func apiLines(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := goparser.ParseDir(fset, ".", notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := doc.New(pkgs["junicon"], "junicon", 0)
	var lines []string
	render := func(n any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			d := *f.Decl
			d.Doc, d.Body = nil, nil
			lines = append(lines, render(&d))
		}
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			for _, s := range v.Decl.Specs {
				if s.(*ast.ValueSpec).Names[0].IsExported() {
					lines = append(lines, v.Decl.Tok.String()+" "+render(s))
				}
			}
		}
	}
	values(p.Consts)
	values(p.Vars)
	funcs(p.Funcs)
	for _, typ := range p.Types {
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		switch spec.Type.(type) {
		case *ast.StructType:
			lines = append(lines, "type "+typ.Name+" struct")
		case *ast.InterfaceType:
			lines = append(lines, "type "+typ.Name+" interface")
		default:
			lines = append(lines, "type "+render(spec))
		}
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
