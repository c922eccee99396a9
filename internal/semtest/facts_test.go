package semtest

import (
	"fmt"
	"strings"
	"testing"

	"junicon/internal/analyze"
	jast "junicon/internal/ast"
	"junicon/internal/meta"
	jparser "junicon/internal/parser"
	"junicon/internal/transform"
)

// The evaluators grow their whole-program facts one LoadProgram batch at a
// time (analyze.Facts.ExtendDecls) and re-run the interprocedural fixpoint
// only when a batch rebinds a name analyzed earlier. These tests are the
// differential statement that batching is invisible: however a program is
// cut into batches, the procedure table and the cached node facts equal
// what one from-scratch analyze.ProgramFacts call computes over the whole
// program. Same facts ⇒ same |> provisioning, same OpCall1 sites.

// factsSource is one shipped program as the analysis sees it: normalized
// top-level nodes, in order.
type factsSource struct {
	where string
	nodes []jast.Node
}

// normalizedProgram parses and normalizes a program, appending the
// normalized expression expr (if any) as its last top-level statement.
func normalizedProgram(t *testing.T, where, src, expr string) (factsSource, bool) {
	t.Helper()
	fs := factsSource{where: where}
	if strings.TrimSpace(src) != "" {
		prog, err := jparser.ParseProgram(src)
		if err != nil {
			return fs, false // an expression region, or not a whole program
		}
		fs.nodes = transform.Normalize(prog).(*jast.Program).Decls
	}
	if expr != "" {
		e, err := jparser.ParseExpression(expr)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		fs.nodes = append(fs.nodes[:len(fs.nodes):len(fs.nodes)], transform.Normalize(e))
	}
	return fs, len(fs.nodes) > 0
}

// shippedPrograms gathers every Junicon program the repository ships:
// testdata/, the examples' embedded programs and mixed files, the
// differential corpus (program plus driver expression) and both of the
// benchmark's program sets (read-only).
func shippedPrograms(t *testing.T) []factsSource {
	t.Helper()
	var out []factsSource
	add := func(where, src, expr string) {
		if fs, ok := normalizedProgram(t, where, src, expr); ok {
			out = append(out, fs)
		}
	}
	for _, pattern := range []string{"testdata/*.jn", "internal/translate/testdata/*.jn", "benchmark/programs/*/*.jn"} {
		for _, path := range repoGlob(t, pattern) {
			add(path, readFile(t, path), "")
		}
	}
	for _, path := range repoGlob(t, "examples/*/main.go") {
		for i, s := range hostSources(t, path) {
			if !s.expr {
				add(fmt.Sprintf("%s#%d", path, i), s.src, "")
			}
		}
	}
	for _, path := range repoGlob(t, "examples/*/*.gmix") {
		segs, err := meta.Parse(readFile(t, path))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i, r := range meta.Regions(segs) {
			if r.Lang() == "junicon" {
				add(fmt.Sprintf("%s#%d", path, i), r.Raw, "")
			}
		}
	}
	for _, c := range corpus(t) {
		add("corpus "+c.Name, c.Program, c.Expr)
	}
	return out
}

// splits lists the ways to cut n nodes into consecutive batches, as batch
// sizes: every composition of n when there are few enough to enumerate,
// otherwise every uniform batch size and every cut into two.
func splits(n int) [][]int {
	var out [][]int
	if n <= 8 {
		for mask := 0; mask < 1<<(n-1); mask++ { // bit i set: cut after node i
			size := 1
			var sizes []int
			for i := 0; i < n-1; i++ {
				if mask&(1<<i) != 0 {
					sizes = append(sizes, size)
					size = 0
				}
				size++
			}
			out = append(out, append(sizes, size))
		}
		return out
	}
	for b := 1; b <= n; b++ {
		var sizes []int
		for left := n; left > 0; left -= b {
			sizes = append(sizes, min(b, left))
		}
		out = append(out, sizes)
	}
	for cut := 1; cut < n; cut++ {
		out = append(out, []int{cut, n - cut})
	}
	return out
}

func isDecl(n jast.Node) bool {
	switch n.(type) {
	case *jast.ProcDecl, *jast.ClassDecl, *jast.RecordDecl, *jast.GlobalDecl:
		return true
	}
	return false
}

// diffFacts reports where got departs from want: the procedure tables, the
// facts of every node under a declaration, and the facts of the given
// statements (the ones got analyzed last — earlier batches' statements are
// cached only until the next batch, as in the interpreter, which has
// evaluated them by then).
func diffFacts(got, want *analyze.Facts, nodes, stmts []jast.Node) []string {
	var diffs []string
	if g, w := strings.Join(got.ProcNames(), " "), strings.Join(want.ProcNames(), " "); g != w {
		return []string{fmt.Sprintf("procedures [%s], want [%s]", g, w)}
	}
	for _, name := range want.ProcNames() {
		g, _ := got.Proc(name)
		w, _ := want.Proc(name)
		if g != w {
			diffs = append(diffs, fmt.Sprintf("proc %s: %v recursive=%v, want %v recursive=%v",
				name, g.GenFacts, g.Recursive, w.GenFacts, w.Recursive))
		}
	}
	compare := func(root jast.Node) {
		jast.Walk(root, func(n jast.Node) bool {
			g, gok := got.At(n)
			w, wok := want.At(n)
			if g != w || gok != wok {
				diffs = append(diffs, fmt.Sprintf("%T at %d:%d: %v (cached=%v), want %v (cached=%v)",
					n, n.Pos().Line, n.Pos().Col, g, gok, w, wok))
			}
			return true
		})
	}
	for _, n := range nodes {
		if isDecl(n) {
			compare(n)
		}
	}
	for _, s := range stmts {
		compare(s)
	}
	return diffs
}

// loadInBatches feeds nodes to a fresh fact table in batches of the given
// sizes and returns it with the statements of the last batch.
func loadInBatches(nodes []jast.Node, sizes []int) (*analyze.Facts, []jast.Node) {
	f := analyze.NewFacts()
	var last []jast.Node
	for _, size := range sizes {
		last, nodes = nodes[:size], nodes[size:]
		f.ExtendDecls(last)
	}
	var stmts []jast.Node
	for _, n := range last {
		if !isDecl(n) {
			stmts = append(stmts, n)
		}
	}
	return f, stmts
}

// TestIncrementalFactsEqualFromScratch cuts every shipped program into
// batches every way splits lists and requires the batch-grown facts to
// equal the from-scratch ones.
func TestIncrementalFactsEqualFromScratch(t *testing.T) {
	programs := shippedPrograms(t)
	if len(programs) < 40 {
		t.Fatalf("found only %d programs", len(programs))
	}
	// No shipped program declares a global after the procedure that
	// writes it; this row does, so its splits put the declaration in a
	// later batch than the writer and the writer's caller.
	lateGlobal, _ := normalizedProgram(t, "late global",
		`def bump() { g := g + 1; return g; }  def twice() { return bump() + bump(); }  global g`, "")
	programs = append(programs, lateGlobal)
	total := 0
	for _, p := range programs {
		_, oracle := analyze.ProgramFacts(&jast.Program{Decls: p.nodes}, analyze.Options{})
		if p.where == lateGlobal.where {
			if pf, _ := oracle.Proc("twice"); pf.Effects&analyze.EffWritesGlobals == 0 {
				t.Errorf("%s: twice is %v, want writes-globals (the row is vacuous otherwise)", p.where, pf.GenFacts)
			}
		}
		for _, sizes := range splits(len(p.nodes)) {
			total++
			got, stmts := loadInBatches(p.nodes, sizes)
			if diffs := diffFacts(got, oracle, p.nodes, stmts); len(diffs) > 0 {
				t.Errorf("%s in batches of %v: %d differences, first: %s", p.where, sizes, len(diffs), diffs[0])
				break
			}
		}
	}
	t.Logf("%d programs, %d splits", len(programs), total)
}

// TestFactsCachedWhereAsked: the node cache holds what its consumers look
// up — the body of every |> (analyze.Facts.PipeStrategy, JV012) and the
// left operand of every limit (JV014) — in every shipped program, wherever
// the site sits (a statement, a suspend, a nested create body).
func TestFactsCachedWhereAsked(t *testing.T) {
	asked := 0
	for _, p := range shippedPrograms(t) {
		_, facts := analyze.ProgramFacts(&jast.Program{Decls: p.nodes}, analyze.Options{})
		for _, root := range p.nodes {
			jast.Walk(root, func(n jast.Node) bool {
				var site jast.Node
				switch x := n.(type) {
				case *jast.Unary:
					if x.Op == "|>" {
						site = x.X
					}
				case *jast.Binary:
					if x.Op == "\\" {
						site = x.L
					}
				}
				if site != nil {
					asked++
					if _, ok := facts.At(site); !ok {
						t.Errorf("%s: %T at %d:%d has no cached facts", p.where, site, site.Pos().Line, site.Pos().Col)
					}
				}
				return true
			})
		}
	}
	if asked < 20 {
		t.Fatalf("only %d sites in the shipped programs", asked)
	}
}

// TestIncrementalFactsRebinding covers the cases the fixpoint must be
// re-run for — a batch that changes what an earlier call site means — and
// the near misses it must not be confused by. Each case is a list of
// batches; the facts after the last one must equal the from-scratch facts
// of the surviving program, and the named procedures must have the
// properties the case is about (so that equality is not vacuous).
func TestIncrementalFactsRebinding(t *testing.T) {
	type want struct {
		proc      string
		pure      bool // fusable effects and at most one result: an OpCall1 callee
		recursive bool
	}
	for _, c := range []struct {
		name    string
		batches []string
		want    []want
	}{
		{
			name: "redefinition changes a caller's summary",
			batches: []string{
				`def leaf(x) { return x + 1; }  def caller(x) { return leaf(x) * 2; }`,
				`def leaf(x) { write(x); return x; }`,
			},
			want: []want{{proc: "leaf"}, {proc: "caller"}},
		},
		{
			name: "redefinition back to pure",
			batches: []string{
				`def leaf(x) { write(x); return x; }  def caller(x) { return leaf(x) * 2; }`,
				`def leaf(x) { return x + 1; }`,
			},
			want: []want{{proc: "leaf", pure: true}, {proc: "caller", pure: true}},
		},
		{
			name: "callee defined in a later batch",
			batches: []string{
				`def caller(x) { return later(x) + 1; }`,
				`def other(x) { return x; }`,
				`def later(x) { return x * x; }`,
			},
			want: []want{{proc: "caller", pure: true}, {proc: "later", pure: true}},
		},
		{
			name: "callee never defined stays unknown",
			batches: []string{
				`def caller(x) { return missing(x) + 1; }`,
				`def other(x) { return x; }`,
			},
			want: []want{{proc: "caller"}, {proc: "other", pure: true}},
		},
		{
			name: "mutual recursion across batches",
			batches: []string{
				`def even(n) { if n ~= 0 then return odd(n - 1); return n; }`,
				`def odd(n) { if n ~= 0 then return even(n - 1); fail; }`,
			},
			want: []want{{proc: "even", pure: true, recursive: true}, {proc: "odd", pure: true, recursive: true}},
		},
		{
			name: "generator recursion closed by a later batch",
			batches: []string{
				`def walk(n) { suspend n; if n > 0 then suspend step(n); }`,
				`def step(n) { suspend walk(n - 1); }`,
			},
			want: []want{{proc: "walk", recursive: true}, {proc: "step", recursive: true}},
		},
		{
			name: "a procedure named like a builtin an earlier batch called",
			batches: []string{
				`def shout(x) { return image(x) || "!"; }`,
				`def image(x) { write(x); return "?"; }`,
			},
			want: []want{{proc: "shout"}, {proc: "image"}},
		},
		{
			name: "call through a local is not a late binding",
			batches: []string{
				`def apply(f, x) { return f(x); }`,
				`def f(x) { return x; }`,
			},
			want: []want{{proc: "apply"}, {proc: "f", pure: true}},
		},
		{
			name: "same name twice in one batch",
			batches: []string{
				`def a(x) { return b(x); }  def b(x) { write(x); return x; }  def b(x) { return x; }`,
			},
			want: []want{{proc: "a", pure: true}, {proc: "b", pure: true}},
		},
		{
			name: "a global declared after the procedure that writes it",
			batches: []string{
				`def bump() { g := g + 1; return g; }  def twice() { return bump() + bump(); }`,
				`def other(x) { return x; }`,
				`global g`,
			},
			want: []want{{proc: "bump"}, {proc: "twice"}, {proc: "other", pure: true}},
		},
		{
			name: "methods are procedures",
			batches: []string{
				`def twice(x) { return bump(x) + bump(x); }`,
				`class Counter(n) { def bump(d) { write(d); return n + d; } }`,
			},
			want: []want{{proc: "twice"}, {proc: "bump"}},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := analyze.NewFacts()
			var all []jast.Node
			for i, src := range c.batches {
				fs, ok := normalizedProgram(t, fmt.Sprintf("batch %d", i), src, "")
				if !ok {
					t.Fatalf("batch %d does not parse", i)
				}
				got.ExtendDecls(fs.nodes)
				all = append(all, fs.nodes...)
			}
			// The surviving program: the last declaration of each name.
			_, oracle := analyze.ProgramFacts(&jast.Program{Decls: all}, analyze.Options{})
			last := map[string]jast.Node{}
			for _, n := range all {
				if p, ok := n.(*jast.ProcDecl); ok {
					last[p.Name] = p
				}
			}
			var live []jast.Node
			for _, n := range all {
				if p, ok := n.(*jast.ProcDecl); !ok || last[p.Name] == n {
					live = append(live, n)
				}
			}
			for _, d := range diffFacts(got, oracle, live, nil) {
				t.Error(d)
			}
			for _, w := range c.want {
				pf, ok := got.Proc(w.proc)
				if !ok {
					t.Errorf("%s has no summary", w.proc)
					continue
				}
				if pure := pf.Effects.Fusable() && pf.Yields.AtMost(1); pure != w.pure {
					t.Errorf("%s: pure single result = %v, want %v (%v)", w.proc, pure, w.pure, pf.GenFacts)
				}
				if pf.Recursive != w.recursive {
					t.Errorf("%s: recursive = %v, want %v", w.proc, pf.Recursive, w.recursive)
				}
			}
		})
	}
}

// FuzzFactsIncremental extends TestIncrementalFactsEqualFromScratch from
// the listed splits to every split. For any program that parses, the
// from-scratch analysis of its raw and normalized forms does not panic,
// and feeding its normalized top-level nodes to a fact table in batches —
// bit i%64 of cuts set: a batch ends after node i — gives the same
// procedure table (Fdump) and the same cached facts, |> bodies and limit
// operands included, as one from-scratch ProgramFacts call.
func FuzzFactsIncremental(f *testing.F) {
	for _, pattern := range []string{"testdata/*.jn", "benchmark/programs/*/*.jn", "internal/analyze/testdata/*.jn"} {
		for i, path := range repoGlob(f, pattern) {
			f.Add(readFile(f, path), uint64(i+1)*0x9e3779b97f4a7c15)
		}
	}
	// The shapes that make a later batch rebind an earlier one, cut after
	// every node: a forward call, a redefinition, a builtin's name taken,
	// a global declared after its writer.
	for _, src := range []string{
		"def a(x) { return b(x) + 1; }\ndef b(x) { write(x); return x; }",
		"def leaf(x) { return x; }\ndef caller(x) { return leaf(x); }\ndef leaf(x) { write(x); return x; }",
		"def shout(x) { return image(x); }\ndef image(x) { write(x); return x; }",
		"def bump() { g := g + 1; return g; }\ndef twice() { return bump() + bump(); }\nglobal g",
	} {
		f.Add(src, ^uint64(0))
	}
	f.Fuzz(func(t *testing.T, src string, cuts uint64) {
		prog, err := jparser.ParseProgram(src)
		if err != nil {
			t.Skip("does not parse")
		}
		analyze.ProgramFacts(prog, analyze.Options{})
		nodes := transform.Normalize(prog).(*jast.Program).Decls
		_, want := analyze.ProgramFacts(&jast.Program{Decls: nodes}, analyze.Options{})
		var sizes []int
		for i, size := 0, 0; i < len(nodes); i++ {
			if size++; cuts>>(i%64)&1 != 0 || i == len(nodes)-1 {
				sizes, size = append(sizes, size), 0
			}
		}
		got, stmts := loadInBatches(nodes, sizes)
		var gd, wd strings.Builder
		got.Fdump(&gd)
		want.Fdump(&wd)
		if gd.String() != wd.String() {
			t.Fatalf("in batches of %v:\n%s\nwant:\n%s", sizes, gd.String(), wd.String())
		}
		if diffs := diffFacts(got, want, nodes, stmts); len(diffs) > 0 {
			t.Fatalf("in batches of %v: %d differences, first: %s", sizes, len(diffs), diffs[0])
		}
	})
}
