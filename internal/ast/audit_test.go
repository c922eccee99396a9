package ast_test

import (
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	"junicon/internal/ast"
	"junicon/internal/parser"
	"junicon/internal/transform"
)

// The traversal audit: interprocedural analysis walks trees through
// ast.Children and reports through node positions, so a node field missed
// by Children silently exempts a subtree from analysis, and an unstamped
// node produces 0:0 diagnostics. These tests pin both properties.

func ident(name string) *ast.Ident { return &ast.Ident{Name: name} }

// exemplars holds one instance of every node kind with every Node-typed
// field populated. The reflection audit below derives the expected child
// set from the struct fields themselves, so a field added to a node type
// without a matching Children case fails here.
func exemplars() []ast.Node {
	return []ast.Node{
		&ast.IntLit{Text: "1"},
		&ast.RealLit{Text: "1.0"},
		&ast.StrLit{Value: "s"},
		&ast.CsetLit{Value: "abc"},
		&ast.Keyword{Name: "null"},
		ident("x"),
		&ast.TmpRef{Name: "t1"},
		&ast.ListLit{Elems: []ast.Node{ident("a"), ident("b")}},
		&ast.Binary{Op: "+", L: ident("a"), R: ident("b")},
		&ast.Unary{Op: "-", X: ident("a")},
		&ast.ToBy{Lo: ident("a"), Hi: ident("b"), By: ident("c")},
		&ast.Call{Fun: ident("f"), Args: []ast.Node{ident("a"), ident("b")}},
		&ast.NativeCall{Name: "n", Recv: ident("r"), Args: []ast.Node{ident("a")}},
		&ast.Index{X: ident("a"), I: ident("i")},
		&ast.Slice{X: ident("a"), I: ident("i"), J: ident("j")},
		&ast.Field{X: ident("a"), Name: "f"},
		&ast.If{Cond: ident("c"), Then: ident("t"), Else: ident("e")},
		&ast.While{Cond: ident("c"), Body: ident("b")},
		&ast.Every{E: ident("g"), Body: ident("b")},
		&ast.Repeat{Body: ident("b")},
		&ast.Case{Subject: ident("s"), Clauses: []ast.CaseClause{
			{Sel: ident("v"), Body: ident("b")},
		}},
		&ast.Block{Stmts: []ast.Node{ident("a"), ident("b")}},
		&ast.Return{E: ident("e")},
		&ast.Suspend{E: ident("e"), Body: ident("b")},
		&ast.Fail{},
		&ast.Break{E: ident("e")},
		&ast.NextStmt{},
		&ast.Initial{Body: ident("b")},
		&ast.VarDecl{Kind: "local", Names: []string{"x"}, Inits: []ast.Node{ident("i")}},
		&ast.ProcDecl{Name: "p", Body: &ast.Block{}},
		&ast.RecordDecl{Name: "r", Fields: []string{"f"}},
		&ast.GlobalDecl{Names: []string{"g"}},
		&ast.ClassDecl{Name: "c", Methods: []*ast.ProcDecl{{Name: "m", Body: &ast.Block{}}}},
		&ast.Program{Decls: []ast.Node{ident("d")}},
		&ast.BindIn{Tmp: "t1", E: ident("e")},
		&ast.FlatProduct{Terms: []ast.Node{ident("a"), ident("b")}},
	}
}

// fieldNodes collects every non-nil ast.Node reachable through a node's
// own struct fields: direct fields, slices, and clause-style sub-structs.
func fieldNodes(v reflect.Value) []ast.Node {
	var out []ast.Node
	var collect func(f reflect.Value)
	collect = func(f reflect.Value) {
		if !f.IsValid() || !f.CanInterface() {
			return
		}
		switch f.Kind() {
		case reflect.Interface, reflect.Ptr:
			if f.IsNil() {
				return
			}
			if n, ok := f.Interface().(ast.Node); ok {
				out = append(out, n)
				return
			}
			if f.Kind() == reflect.Ptr {
				collect(f.Elem())
			}
		case reflect.Slice:
			for i := 0; i < f.Len(); i++ {
				collect(f.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < f.NumField(); i++ {
				collect(f.Field(i))
			}
		}
	}
	for i := 0; i < v.NumField(); i++ {
		collect(v.Field(i))
	}
	return out
}

// TestChildrenCoversNodeFields pins that ast.Children reaches every
// Node-typed field of every node kind — the property the analysis passes
// depend on for whole-tree coverage.
func TestChildrenCoversNodeFields(t *testing.T) {
	for _, n := range exemplars() {
		v := reflect.ValueOf(n).Elem()
		want := fieldNodes(v)
		got := ast.Children(n)
		inGot := map[ast.Node]bool{}
		for _, c := range got {
			inGot[c] = true
		}
		for _, w := range want {
			if !inGot[w] {
				t.Errorf("%T: field child %T not returned by Children "+
					"(fields %d, Children %d)", n, w, len(want), len(got))
			}
		}
		if len(got) > len(want) {
			t.Errorf("%T: Children returned %d nodes, fields hold %d", n, len(got), len(want))
		}
	}
}

// sparseExemplars are the node kinds with optional children, with those
// children absent: the shapes in which a visitor and the XML form could
// disagree about what "no child" means.
func sparseExemplars() []ast.Node {
	return []ast.Node{
		&ast.ToBy{Lo: ident("a"), Hi: ident("b")},
		&ast.NativeCall{Name: "n", Args: []ast.Node{ident("a")}},
		&ast.Slice{X: ident("a"), I: ident("i")},
		&ast.If{Cond: ident("c"), Then: ident("t")},
		&ast.While{Cond: ident("c")},
		&ast.Every{E: ident("g")},
		&ast.Case{Subject: ident("s"), Clauses: []ast.CaseClause{
			{Sel: ident("v"), Body: ident("b")},
			{Body: ident("d")},
		}},
		&ast.Return{},
		&ast.Suspend{E: ident("e")},
		&ast.Break{},
		&ast.VarDecl{Kind: "local", Names: []string{"x", "y", "z"}, Inits: []ast.Node{nil, ident("i"), nil}},
		&ast.ListLit{},
		&ast.Block{},
	}
}

// TestEachChildMatchesXMLParts pins the allocation-free visitor that Walk
// and Children run on to the XML serializer's decomposition, which is the
// canonical term form: same children, same order, for every node kind.
func TestEachChildMatchesXMLParts(t *testing.T) {
	for _, n := range append(exemplars(), sparseExemplars()...) {
		got := ast.Children(n) // eachChild, collected
		want := ast.XMLChildren(n)
		if len(got) != len(want) {
			t.Errorf("%T: visitor sees %d children, XML form %d", n, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%T: child %d is %s, XML form has %s", n, i, describe(got[i]), describe(want[i]))
			}
		}
	}
}

// TestWalkDoesNotAllocate holds the traversal to its budget: nothing per
// node, nothing per call.
func TestWalkDoesNotAllocate(t *testing.T) {
	prog, err := parser.ParseProgram(positionAuditSource)
	if err != nil {
		t.Fatal(err)
	}
	norm := transform.Normalize(prog)
	nodes := 0
	count := func(ast.Node) bool { nodes++; return true }
	if allocs := testing.AllocsPerRun(10, func() { ast.Walk(norm, count) }); allocs != 0 {
		t.Errorf("Walk allocates %.0f objects over a %d-node tree, want 0", allocs, nodes/11)
	}
}

// nodeTypes lists the types with an xmlName method — the Node
// implementations — by reading this package's source.
func nodeTypes(t *testing.T, files map[string]*goast.File) []string {
	t.Helper()
	var out []string
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*goast.FuncDecl)
			if !ok || fd.Name.Name != "xmlName" || fd.Recv == nil {
				continue
			}
			if star, ok := fd.Recv.List[0].Type.(*goast.StarExpr); ok {
				out = append(out, star.X.(*goast.Ident).Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// switchCases lists the pointer types a function's first type switch has
// cases for.
func switchCases(t *testing.T, files map[string]*goast.File, fn string) []string {
	t.Helper()
	var out []string
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*goast.FuncDecl)
			if !ok || fd.Name.Name != fn || fd.Recv != nil {
				continue
			}
			goast.Inspect(fd.Body, func(n goast.Node) bool {
				ts, ok := n.(*goast.TypeSwitchStmt)
				if !ok || out != nil {
					return out == nil
				}
				for _, c := range ts.Body.List {
					for _, e := range c.(*goast.CaseClause).List {
						if star, ok := e.(*goast.StarExpr); ok {
							out = append(out, star.X.(*goast.Ident).Name)
						}
					}
				}
				return false
			})
		}
	}
	sort.Strings(out)
	return out
}

// TestEveryNodeTypeHasAVisitorCase reads the package's own source: every
// type that implements Node must be named in a case of eachChild (leaves
// too — a type that falls through the switch has its subtree silently
// skipped by every analysis pass), in a case of parts, and among the
// exemplars the audits above run over.
func TestEveryNodeTypeHasAVisitorCase(t *testing.T) {
	files := map[string]*goast.File{}
	for _, name := range []string{"ast.go", "walk.go", "xml.go"} {
		f, err := goparser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	types := nodeTypes(t, files)
	if len(types) < 30 {
		t.Fatalf("found only %d node types: %v", len(types), types)
	}
	var shown []string
	for _, n := range exemplars() {
		shown = append(shown, strings.TrimPrefix(fmt.Sprintf("%T", n), "*ast."))
	}
	sort.Strings(shown)
	for where, have := range map[string][]string{
		"eachChild":   switchCases(t, files, "eachChild"),
		"parts":       switchCases(t, files, "parts"),
		"exemplars()": shown,
	} {
		if got, want := strings.Join(have, " "), strings.Join(types, " "); got != want {
			t.Errorf("%s does not cover the node types exactly:\n have %s\n want %s", where, got, want)
		}
	}
}

// positionAuditSource exercises every syntactic form the parser produces.
const positionAuditSource = `
global gcount

record point(x, y)

class Counter(n) {
  def bump(delta) { n := n + delta; return n; }
}

def audit(a, b) {
  local acc, i
  static seen
  initial { seen := 0; }
  acc := [1, 2.5, "s", 'abc'];
  every i := 1 to 10 by 2 do {
    if i > 5 then acc[1] := i else acc[2:3];
    case i of {
      1: write(i);
      default: fail;
    }
  }
  while i < 3 do next;
  repeat { break acc.x; }
  suspend !acc do gcount := &null;
  p := |> (1 to 3);
  c := <> (a + b);
  return a::host(b) + @p;
}
`

func checkStamped(t *testing.T, root ast.Node, phase string) {
	t.Helper()
	ast.Walk(root, func(n ast.Node) bool {
		if n.Pos().Line <= 0 {
			t.Errorf("%s: %T at %v lacks a position", phase, n, n.Pos())
		}
		return true
	})
}

// TestPositionStamping pins that every parsed node — and every node the
// normalizer synthesizes (TmpRef, BindIn, FlatProduct) — carries a source
// position, so interprocedural diagnostics can always anchor to a line.
func TestPositionStamping(t *testing.T) {
	prog, err := parser.ParseProgram(positionAuditSource)
	if err != nil {
		t.Fatal(err)
	}
	checkStamped(t, prog, "parsed")
	norm := transform.Normalize(prog)
	checkStamped(t, norm, "normalized")
}

// TestNormalizedTreesCovered cross-checks the two audits: the normalized
// tree must be fully reachable through Children (no orphaned subtrees),
// counted against an independent reflection walk of the same tree.
func TestNormalizedTreesCovered(t *testing.T) {
	prog, err := parser.ParseProgram(positionAuditSource)
	if err != nil {
		t.Fatal(err)
	}
	norm := transform.Normalize(prog)
	viaChildren := map[ast.Node]bool{}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil || viaChildren[n] {
			return
		}
		viaChildren[n] = true
		for _, c := range ast.Children(n) {
			walk(c)
		}
	}
	walk(norm)

	viaReflect := map[ast.Node]bool{}
	var rwalk func(n ast.Node)
	rwalk = func(n ast.Node) {
		if n == nil || viaReflect[n] {
			return
		}
		viaReflect[n] = true
		for _, c := range fieldNodes(reflect.ValueOf(n).Elem()) {
			rwalk(c)
		}
	}
	rwalk(norm)

	for n := range viaReflect {
		if !viaChildren[n] {
			t.Errorf("node %s unreachable via Children", describe(n))
		}
	}
	if len(viaChildren) != len(viaReflect) {
		t.Errorf("Children reaches %d nodes, reflection reaches %d",
			len(viaChildren), len(viaReflect))
	}
}

func describe(n ast.Node) string {
	return fmt.Sprintf("%T at %d:%d", n, n.Pos().Line, n.Pos().Col)
}
