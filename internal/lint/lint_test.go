package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// check runs the suite over one source snippet and returns the findings'
// "check" names in order.
func check(t *testing.T, src string) []Finding {
	t.Helper()
	findings, err := CheckSource("test.go", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return findings
}

func wantChecks(t *testing.T, src string, want ...string) {
	t.Helper()
	var got []string
	for _, f := range check(t, src) {
		got = append(got, f.Check)
	}
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want %v\n%v", got, want, check(t, src))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("findings = %v, want %v", got, want)
		}
	}
}

func TestPipeStopLeak(t *testing.T) {
	wantChecks(t, `package p

func leak(g core.Gen) int {
	p := pipe.FromGen(g, 8)
	v, _ := p.Next()
	return v
}
`, "pipestop")
}

// TestPipeCreatorsCoverPackagePipe: every exported function of package
// pipe that returns a *Pipe is a creation pipestop tracks, so a new
// constructor cannot leak unnoticed; and every creation pipestop tracks
// is a function of package pipe, so a deleted one cannot linger.
func TestPipeCreatorsCoverPackagePipe(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), "../pipe", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil || pkgs["pipe"] == nil {
		t.Fatalf("parse internal/pipe: %v", err)
	}
	n := 0
	funcs := map[string]bool{}
	for _, file := range pkgs["pipe"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			funcs[fn.Name.Name] = true
			if fn.Type.Results == nil {
				continue
			}
			for _, res := range fn.Type.Results.List {
				if star, ok := res.Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && id.Name == "Pipe" {
						n++
						if !pipeCreators[fn.Name.Name] {
							t.Errorf("pipe.%s returns a *Pipe but is not in pipeCreators", fn.Name.Name)
						}
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no function of package pipe returns a *Pipe: the scan is broken")
	}
	for name := range pipeCreators {
		if !funcs[name] {
			t.Errorf("pipeCreators names pipe.%s, which is no function of package pipe", name)
		}
	}
}

func TestPipeStopReleased(t *testing.T) {
	for _, release := range []string{
		"defer p.Stop()",
		"p.Stop()",
		"p.First()",
	} {
		wantChecks(t, `package p

func ok(g core.Gen) {
	p := pipe.FromGen(g, 8)
	`+release+`
	p.Next()
}
`)
	}
}

func TestPipeStopEscapes(t *testing.T) {
	cases := []string{
		// Returned: the caller owns the release.
		`package p
func mk(g core.Gen) *pipe.Pipe { p := pipe.FromGen(g, 8); return p }`,
		// Passed as an argument.
		`package p
func hand(g core.Gen) { p := pipe.FromGen(g, 8); drain(p) }`,
		// Stored in a struct literal.
		`package p
func store(g core.Gen) S { p := pipe.FromGen(g, 8); return S{pipe: p} }`,
		// Aliased through OnPool (the alias carries the release duty).
		`package p
func pooled(g core.Gen, pl *pool.Pool) { p := pipe.FromGen(g, 8); q := p.OnPool(pl); q.Stop() }`,
	}
	for _, src := range cases {
		wantChecks(t, src)
	}
}

func TestPipeStopChainedCreation(t *testing.T) {
	// The creator hides mid-chain; the variable still holds the pipe.
	wantChecks(t, `package p

func leak(g core.Gen, pl *pool.Pool) {
	p := pipe.FromGenBatched(g, 8, 4).OnPool(pl)
	p.Next()
}
`, "pipestop")
}

func TestPutAfterClose(t *testing.T) {
	wantChecks(t, `package p

func flush(q queue.Queue[int]) {
	q.Close()
	q.Put(1)
}
`, "putclose")
}

func TestPutAfterCloseBatchInLoop(t *testing.T) {
	wantChecks(t, `package p

func flush(q queue.Queue[int], runs [][]int) {
	q.Close()
	for _, r := range runs {
		q.PutBatch(r)
	}
}
`, "putclose")
}

func TestPutAfterCloseClean(t *testing.T) {
	cases := []string{
		// Put before Close: the normal shutdown order.
		`package p
func ok(q queue.Queue[int]) { q.Put(1); q.Close() }`,
		// defer Close runs last, not at its textual position.
		`package p
func ok(q queue.Queue[int]) { defer q.Close(); q.Put(1) }`,
		// Reassignment starts a fresh queue.
		`package p
func ok(q queue.Queue[int]) { q.Close(); q = queue.NewArrayBlocking[int](4); q.Put(1) }`,
		// Different receivers.
		`package p
func ok(a, b queue.Queue[int]) { a.Close(); b.Put(1) }`,
	}
	for _, src := range cases {
		wantChecks(t, src)
	}
}

func TestInspectLeak(t *testing.T) {
	wantChecks(t, `package p

func leak(id uint64) {
	h := inspect.Open(id, inspect.KindPipe, "leaky")
	h.Produced(1)
}
`, "inspectleak")
}

func TestInspectLeakDiscardedResult(t *testing.T) {
	// A record nobody holds can never be closed: statement position and
	// blank assignment are both flagged.
	wantChecks(t, `package p

func drop(id uint64) {
	inspect.Open(id, inspect.KindPipe, "dropped")
	_ = inspect.Open(id, inspect.KindPipe, "blanked")
}
`, "inspectleak", "inspectleak")
}

func TestInspectLeakReleased(t *testing.T) {
	for _, release := range []string{
		"defer h.Close()",
		"h.Close()",
	} {
		wantChecks(t, `package p

func ok(id uint64) {
	h := inspect.Open(id, inspect.KindPipe, "tracked")
	`+release+`
	h.Produced(1)
}
`)
	}
}

func TestInspectLeakNilGuardStillLeaks(t *testing.T) {
	// The every-sink-off nil test is not a release: a record that is only
	// ever nil-checked and used through methods still leaks.
	wantChecks(t, `package p

func leak(id uint64) {
	h := inspect.Open(id, inspect.KindPipe, "guarded")
	if h != nil {
		h.Produced(1)
	}
}
`, "inspectleak")
}

func TestInspectLeakEscapes(t *testing.T) {
	cases := []string{
		// Returned: the caller owns the retirement.
		`package p
func mk(id uint64) *inspect.Handle { h := inspect.Open(id, inspect.KindPipe, "x"); return h }`,
		// Passed as an argument.
		`package p
func hand(id uint64) { h := inspect.Open(id, inspect.KindPipe, "x"); watch(h) }`,
		// Stored in a struct field.
		`package p
func store(id uint64, s *S) { h := inspect.Open(id, inspect.KindPipe, "x"); s.h = h }`,
	}
	for _, src := range cases {
		wantChecks(t, src)
	}
}

func TestIgnoreDirective(t *testing.T) {
	wantChecks(t, `package p

func flush(q queue.Queue[int]) {
	q.Close()
	//junilint:ignore — contract test
	q.Put(1)
}
`)
}

func TestFindingFormat(t *testing.T) {
	fs := check(t, `package p

func flush(q queue.Queue[int]) {
	q.Close()
	q.Put(1)
}
`)
	if len(fs) != 1 {
		t.Fatalf("findings: %v", fs)
	}
	s := fs[0].String()
	if !strings.HasPrefix(s, "test.go:5:") || !strings.Contains(s, "putclose:") {
		t.Fatalf("finding format: %q", s)
	}
}

func TestSnapGuardDiscarded(t *testing.T) {
	// Bare statement: blob and refusal both dropped.
	wantChecks(t, `package p

func save(g core.Gen) {
	checkpoint.Snapshot(g, checkpoint.Meta{})
}
`, "snapguard")
	// Blank error: the refusal vanishes.
	wantChecks(t, `package p

func save(g core.Gen) []byte {
	blob, _ := checkpoint.Snapshot(g, checkpoint.Meta{})
	return blob
}
`, "snapguard")
	wantChecks(t, `package p

func load(data []byte, m *vm.Machine) core.Gen {
	g, _ := checkpoint.Restore(data, m, nil)
	return g
}
`, "snapguard")
}

func TestSnapGuardHandled(t *testing.T) {
	cases := []string{
		// Error checked: the canonical refusal-aware shape.
		`package p
func save(g core.Gen) ([]byte, error) {
	blob, err := checkpoint.Snapshot(g, checkpoint.Meta{})
	if checkpoint.IsRefused(err) {
		return nil, nil
	}
	return blob, err
}`,
		// Error propagated untouched.
		`package p
func peek(data []byte) (*checkpoint.Meta, error) { return checkpoint.Peek(data) }`,
		// Suppressed explicitly.
		`package p
func fire(g core.Gen) {
	//junilint:ignore — measured, refusal impossible here
	checkpoint.Snapshot(g, checkpoint.Meta{})
}`,
	}
	for _, src := range cases {
		wantChecks(t, src)
	}
}
