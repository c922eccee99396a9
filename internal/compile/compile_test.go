package compile_test

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"junicon/internal/ast"
	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/parser"
	"junicon/internal/transform"
	"junicon/internal/value"
)

var update = flag.Bool("update", false, "rewrite testdata/dis/*.golden from current compiler output")

// testEnv resolves names the way an interpreter with the builtin and scan
// libraries loaded does, over the globals the program declares; pure
// names the one procedure whose calls may compile direct.
func testEnv(decls []ast.Node, topLevel bool) compile.Env {
	scan := core.NewScanHolder()
	consts := core.Builtins(io.Discard)
	for k, v := range core.ScanBuiltins(scan) {
		consts[k] = v
	}
	globals := map[string]*value.Var{}
	for _, d := range decls {
		switch x := d.(type) {
		case *ast.ProcDecl:
			globals[x.Name] = value.NewCell(value.NullV)
		case *ast.GlobalDecl:
			for _, n := range x.Names {
				globals[n] = value.NewCell(value.NullV)
			}
		}
	}
	env := compile.Env{
		LookupGlobal: func(name string) (*value.Var, bool) { v, ok := globals[name]; return v, ok },
		LookupConst:  func(name string) (value.V, bool) { v, ok := consts[name]; return v, ok },
		Native:       func(string) (*value.Native, bool) { return nil, false },
		Scan:         scan,
		PipeStrategy: func(body ast.Node) (bool, int) {
			// Stand-in facts: a literal range is pure, a call is not.
			if _, call := body.(*ast.Call); call {
				return false, 4
			}
			return true, 0
		},
	}
	if topLevel {
		env.DefineGlobal = func(name string) *value.Var {
			if globals[name] == nil {
				globals[name] = value.NewCell(value.NullV)
			}
			return globals[name]
		}
	}
	return env
}

// compileLast compiles the last procedure of a program, or — when src
// declares none — src as a top-level expression.
func compileLast(t *testing.T, src string, env func([]ast.Node, bool) compile.Env) (*compile.Code, error) {
	t.Helper()
	if !strings.Contains(src, "def ") {
		e, err := parser.ParseExpression(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return compile.Expr(transform.Normalize(e), env(nil, true))
	}
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	decls := transform.Normalize(prog).(*ast.Program).Decls
	var last *ast.ProcDecl
	for _, d := range decls {
		if pd, ok := d.(*ast.ProcDecl); ok {
			last = pd
		}
	}
	return compile.Proc(last, env(decls, false))
}

// TestLoweringGoldens pins the listing of the constructs lowered onto
// their own opcodes: one case per opcode and resume kind. The listing is the
// compiler's public face; regenerate with `go test ./internal/compile
// -update` after an intentional change and read the diff.
func TestLoweringGoldens(t *testing.T) {
	cases := []struct {
		name, src string
		ops       []compile.Op // opcodes the listing must contain
		resumes   []string     // resume kinds it must contain
	}{
		{"static", `def tick() { static n, seen := 7; initial n := 0; n +:= 1; return n; }`,
			[]compile.Op{compile.OpInitOnce}, nil},
		{"rev-assign", `def firstAbove(k) { x := 0; if (x <- (1 to 10)) > k then return x; return x; }`,
			[]compile.Op{compile.OpRevAssign}, []string{"undo"}},
		{"rev-assign-ref", `def f(L) { L[1] <- 5; return L; }`,
			[]compile.Op{compile.OpRevAssign, compile.OpIndex}, []string{"undo"}},
		{"aug-targets", `global g
def f(L, r) { static s; z := 0; x := 0; y := <> x; z +:= 1; x +:= 1; g -:= 2; s *:= 3; L[1] +:= 4; r.f <:= 5; every !L >:= 6; return [x, y, z]; }`,
			[]compile.Op{compile.OpAug, compile.OpCmpAug}, nil},
		{"swap", `global g
def f(L, r) { L[1] :=: r.f; g :=: r; return g; }`,
			[]compile.Op{compile.OpSwap}, nil},
		{"rev-swap", `def f(a, b) { (a <-> b) & a > b; return [a, b]; }`,
			[]compile.Op{compile.OpRevSwap}, []string{"undo"}},
		{"create", `global g
def gen(a) { suspend 1 to a; }
def f(limit) { c := |<> (gen(limit) + g); x := @c; y := 3 @ c; c := ^c; suspend !c; }`,
			[]compile.Op{compile.OpCreate, compile.OpActivate}, nil},
		{"pipe", `def gen(a) { suspend 1 to a; }
def f(limit) { p := |> (1 to 3); q := |> gen(limit); suspend !p | !q; }`,
			[]compile.Op{compile.OpCreate}, nil},
		{"scan-expr", `def f(s) { suspend s ? (tab(upto(',')) || &subject[&pos]); }`,
			[]compile.Op{compile.OpScanBegin, compile.OpScanEnd, compile.OpScanVar}, []string{"scan", "scan-end"}},
		{"scan-stmt", `def words(s) {
  s ? {
    while tab(upto(&letters)) do {
      w := tab(many(&letters));
      if w == "stop" then return &pos;
      if w == "skip" then next;
      suspend w;
    };
  };
}`,
			[]compile.Op{compile.OpScanBegin, compile.OpScanLeave, compile.OpScanResume}, nil},
		{"scan-break", `def f(L) { every s := !L do { s ? { if ="#" then break; &pos := 0; }; }; }`,
			[]compile.Op{compile.OpScanLeave, compile.OpScanVar, compile.OpStoreVar}, nil},
		{"top-level-create", `{ n := 3; c := |<> (n + (m := 1) + k); k := @c; c }`,
			[]compile.Op{compile.OpCreate}, nil},
		{"cmp-test", `def multiplesOf7(n) { c := 0; every ((1 to n) * (1 to n)) % 7 == 0 do c +:= 1; return c; }`,
			[]compile.Op{compile.OpCmpTest}, nil},
		{"raise", `def f(i) { if i == 2 then break; write := i; return i | 2r3 | &time; }`,
			[]compile.Op{compile.OpRaise}, nil},
	}
	covered := map[compile.Op]bool{}
	kinds := map[string]bool{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, err := compileLast(t, c.src, testEnv)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var all func(code *compile.Code)
			all = func(code *compile.Code) {
				for _, in := range code.Instrs {
					covered[in.Op] = true
				}
				for _, r := range code.Resumes {
					kinds[r.Kind] = true
				}
				for _, sub := range code.Subs {
					all(sub)
				}
			}
			all(code)
			for _, op := range c.ops {
				if !covered[op] {
					t.Errorf("listing has no %s", op.Name())
				}
			}
			for _, k := range c.resumes {
				if !kinds[k] {
					t.Errorf("resume table has no %q point", k)
				}
			}
			got := "# " + strings.ReplaceAll(c.src, "\n", "\n# ") + "\n" + code.Disassemble()
			path := filepath.Join("testdata", "dis", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("listing drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
			if code.Fingerprint() != code.Fingerprint() {
				t.Error("fingerprint is not a function of the code")
			}
		})
	}
	for _, op := range []compile.Op{
		compile.OpInitOnce, compile.OpAug, compile.OpCmpAug, compile.OpRevAssign, compile.OpSwap, compile.OpRevSwap,
		compile.OpCreate, compile.OpActivate, compile.OpScanBegin, compile.OpScanEnd,
		compile.OpScanLeave, compile.OpScanResume, compile.OpScanVar, compile.OpCmpTest,
		compile.OpRaise,
	} {
		if !covered[op] && !*update {
			t.Errorf("no golden covers %s", op.Name())
		}
	}
}

// TestFingerprintSeesNestedUnits: a changed create body must change the
// creating unit's fingerprint, or a snapshot could resume on code whose
// co-expressions mean something else.
func TestFingerprintSeesNestedUnits(t *testing.T) {
	a, err := compileLast(t, `def f() { c := |<> (1 to 3); return @c; }`, testEnv)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compileLast(t, `def f() { c := |<> (1 to 4); return @c; }`, testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprints equal across different create bodies")
	}
}

// TestUnsupportedReasons pins what the compiler still rejects, by reason:
// constructs an Env without the scan environment, the scan library, the
// native table or DefineGlobal cannot serve. Every other form compiles.
func TestUnsupportedReasons(t *testing.T) {
	noScan := func(decls []ast.Node, top bool) compile.Env {
		env := testEnv(decls, top)
		env.Scan = nil
		return env
	}
	noLibrary := func(decls []ast.Node, top bool) compile.Env {
		env := testEnv(decls, top)
		env.LookupConst = func(string) (value.V, bool) { return nil, false }
		return env
	}
	noNatives := func(decls []ast.Node, top bool) compile.Env {
		env := testEnv(decls, top)
		env.Native = nil
		return env
	}
	noDefine := func(decls []ast.Node, top bool) compile.Env {
		env := testEnv(decls, top)
		env.DefineGlobal = nil
		return env
	}
	cases := []struct {
		src, reason string
		env         func([]ast.Node, bool) compile.Env
	}{
		{`def f(x) { return x::nosuch(); }`, "native ::nosuch", noNatives},
		{`def f(s) { return s ? tab(0); }`, "string scanning without a scan environment", noScan},
		{`def f() { return &pos; }`, "keyword &pos without a scan environment", noScan},
		{`def f(s) { return =s; }`, "tab-match =x without a scan library", noLibrary},
		{`undefinedName + 1`, "unknown name undefinedName", noDefine},
		{`{ local x := 1; x }`, "declaration outside a procedure", noDefine},
	}
	for _, c := range cases {
		_, err := compileLast(t, c.src, c.env)
		var u *compile.Unsupported
		if !errors.As(err, &u) {
			t.Errorf("%s: compiled (err=%v), want Unsupported %q", c.src, err, c.reason)
		} else if u.Reason != c.reason {
			t.Errorf("%s: reason %q, want %q", c.src, u.Reason, c.reason)
		}
	}
}
