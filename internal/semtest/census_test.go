package semtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	jast "junicon/internal/ast"
	"junicon/internal/interp"
	"junicon/internal/meta"
	jparser "junicon/internal/parser"
	"junicon/internal/value"
	"junicon/internal/vm"
)

// censusSource is one piece of Junicon source the repository ships: a
// program (declarations, loaded) or an expression (evaluated, not drained).
type censusSource struct {
	where, src string
	expr       bool
}

// hostSources extracts the Junicon a Go example holds in string literals:
// the arguments of LoadProgram (programs) and Eval/EvalGen/EvalFirst
// (expressions), following a constant to its declaration.
func hostSources(t *testing.T, path string) []censusSource {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	consts := map[string]string{}
	literal := func(e ast.Expr) (string, bool) {
		switch x := e.(type) {
		case *ast.BasicLit:
			if x.Kind == token.STRING {
				s, err := strconv.Unquote(x.Value)
				return s, err == nil
			}
		case *ast.Ident:
			s, ok := consts[x.Name]
			return s, ok
		}
		return "", false
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					if s, ok := literal(vs.Values[i]); ok {
						consts[name.Name] = s
					}
				}
			}
		}
		return true
	})
	var out []censusSource
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		src, ok := literal(call.Args[0])
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "LoadProgram":
			out = append(out, censusSource{where: path, src: src})
		case "Eval", "EvalGen", "EvalFirst":
			out = append(out, censusSource{where: path, src: src, expr: true})
		}
		return true
	})
	return out
}

// readFile and repoGlob read what the repository ships; a pattern is
// relative to the module root and must match something.
func readFile(t testing.TB, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func repoGlob(t testing.TB, pattern string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", pattern))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no files match %s (err=%v)", pattern, err)
	}
	return paths
}

// TestShippedSourcesCompile is the census of what a WithVM interpreter
// runs: everything the repository ships as Junicon — testdata/, the
// examples' embedded programs and expressions, the differential corpus
// and the benchmark's program sets — loaded or evaluated, every procedure
// has a compiled Machine and every expression is a frame.
func TestShippedSourcesCompile(t *testing.T) {
	var sources []censusSource
	read := func(path string) string { return readFile(t, path) }
	glob := func(pattern string) []string { return repoGlob(t, pattern) }
	for _, path := range glob("testdata/*.jn") {
		sources = append(sources, censusSource{where: path, src: read(path)})
	}
	for _, path := range glob("examples/*/main.go") {
		sources = append(sources, hostSources(t, path)...)
	}
	for _, path := range glob("examples/*/*.gmix") {
		segs, err := meta.Parse(read(path))
		if err != nil {
			t.Fatalf("census: %s: %v", path, err)
		}
		for _, r := range meta.Regions(segs) {
			if r.Lang() != "junicon" {
				continue
			}
			_, perr := jparser.ParseProgram(r.Raw)
			sources = append(sources, censusSource{where: path, src: r.Raw, expr: perr != nil})
		}
	}
	for _, c := range corpus(t) {
		sources = append(sources,
			censusSource{where: "corpus " + c.Name, src: c.Program},
			censusSource{where: "corpus " + c.Name, src: c.Expr, expr: true})
	}
	for _, path := range glob("benchmark/programs/*/*.jn") {
		src := read(path)
		sources = append(sources, censusSource{where: path, src: src})
		for _, line := range strings.Split(src, "\n") {
			if d, ok := strings.CutPrefix(line, "# drive:"); ok {
				sources = append(sources, censusSource{where: path, src: strings.TrimSpace(d), expr: true})
			}
		}
	}

	// One interpreter per file, so an expression sees the program its file
	// loaded before it. Host natives (x::split()) are stubbed.
	native := regexp.MustCompile(`::(\w+)`)
	interps := map[string]*interp.Interp{}
	procs, exprs := 0, 0
	for _, s := range sources {
		if strings.TrimSpace(s.src) == "" {
			continue
		}
		in := interps[s.where]
		if in == nil {
			in = interp.New(interp.WithOutput(io.Discard), interp.WithVM())
			interps[s.where] = in
		}
		for _, m := range native.FindAllStringSubmatch(s.src, -1) {
			in.RegisterNative(m[1], func(...value.V) (value.V, error) { return nil, nil })
		}
		if s.expr {
			if _, err := jparser.ParseExpression(s.src); err != nil {
				continue
			}
			exprs++
			if g, err := in.EvalGen(s.src); err != nil {
				t.Errorf("%s: %s: %v", s.where, s.src, err)
			} else if _, ok := g.(*vm.Frame); !ok {
				t.Errorf("%s: %s evaluates to a %T, not a frame", s.where, s.src, g)
			}
			continue
		}
		if err := in.LoadProgram(s.src); err != nil {
			t.Errorf("%s: load: %v", s.where, err)
			continue
		}
		prog, err := jparser.ParseProgram(s.src)
		if err != nil {
			t.Fatalf("census: %s: %v", s.where, err)
		}
		for _, d := range prog.Decls {
			var names []string
			switch x := d.(type) {
			case *jast.ProcDecl:
				names = append(names, x.Name)
			case *jast.ClassDecl:
				for _, m := range x.Methods {
					names = append(names, m.Name)
				}
			}
			for _, name := range names {
				procs++
				if _, ok := in.ProcMachine(name); !ok {
					t.Errorf("%s: procedure %s has no compiled Machine", s.where, name)
				}
			}
		}
	}
	t.Logf("census: %d procedures, %d expressions", procs, exprs)
}
