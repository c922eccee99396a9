package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"junicon/internal/ast"
	"junicon/internal/interp"
	"junicon/internal/parser"
	"junicon/internal/wordcount"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run starts a process of itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-child" || os.Args[1] == "-one") {
		os.Exit(cli(os.Args[1:]))
	}
	os.Exit(m.Run())
}

var update = flag.Bool("update", false, "rewrite programs/**/*.golden from the tree walk (review the diff by hand)")

// formatGolden renders traces the way parseGolden reads them.
func formatGolden(p program, traces map[string][]string) string {
	var b strings.Builder
	for _, d := range p.drivers {
		fmt.Fprintf(&b, "> %s\n", d)
		for _, img := range traces[d] {
			b.WriteString(img + "\n")
		}
	}
	return b.String()
}

// TestGoldens checks every driver expression of both program sets against
// its golden file under all three evaluators.
func TestGoldens(t *testing.T) {
	for _, set := range []string{"vm", "fallback"} {
		programs, err := loadPrograms(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evaluators {
			in, err := loadAll(set, programs, ev.opts...)
			if err != nil {
				t.Fatalf("%s under %s: %v", set, ev.name, err)
			}
			for _, p := range programs {
				traces := map[string][]string{}
				for _, d := range p.drivers {
					traces[d] = drain(in, d)
					if !*update && !sameTrace(traces[d], p.golden[d]) {
						t.Errorf("%s %s under %s:\n got %v\nwant %v", p.name, d, ev.name, traces[d], p.golden[d])
					}
				}
				if *update && ev.name == "tree" {
					path := filepath.Join("programs", p.name+".golden")
					if err := os.WriteFile(path, []byte(formatGolden(p, traces)), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestWordCountGolden holds the one golden value nobody can check by
// hand to a reference that is none of the evaluators: the native
// sequential total of the same corpus.
func TestWordCountGolden(t *testing.T) {
	programs, err := loadPrograms("vm")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range programs {
		if p.name != "vm/wordcount" {
			continue
		}
		got, err := strconv.ParseFloat(p.golden["wcTotal()"][0], 64)
		if err != nil {
			t.Fatal(err)
		}
		if want := wordcount.SequentialTotal(scriptCorpus, wordcount.Light); !sameTotal(got, want) {
			t.Errorf("golden wcTotal() = %v, SequentialTotal = %v", got, want)
		}
		return
	}
	t.Fatal("vm/wordcount not in the set")
}

// TestFallbackUnits pins what puts a program in its set: every unit of
// the vm set compiles, and every program of the fallback set has a
// procedure the compiler rejects. The count comes from this package's own
// composition of the compiler, so it is also checked against what a real
// interpreter compiled.
func TestFallbackUnits(t *testing.T) {
	for _, set := range []string{"vm", "fallback"} {
		programs, err := loadPrograms(set)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := composeLoad(set, programs, nil, -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if set == "vm" && fe.fallback != 0 {
			t.Errorf("vm set: compile.fallback_units = %d, want 0: %v", fe.fallback, fe.rejected)
		}
		in, err := loadAll(set, programs, interp.WithVM())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range programs {
			prog, err := parser.ParseProgram(p.src)
			if err != nil {
				t.Fatal(err)
			}
			rejected := 0
			for _, d := range prog.Decls {
				pd, ok := d.(*ast.ProcDecl)
				if !ok {
					continue
				}
				_, compiled := in.ProcMachine(pd.Name)
				if _, rej := fe.rejected[pd.Name]; rej == compiled {
					t.Errorf("%s: procedure %s: interpreter compiled=%v, composed load rejected=%v", p.name, pd.Name, compiled, rej)
				}
				if !compiled {
					rejected++
				}
			}
			if set == "fallback" && rejected == 0 {
				t.Errorf("%s: every procedure compiles; it does not belong in the fallback set", p.name)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json equal to the tables in this
// package and inside the limits its readers set.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(ws))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, this package %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		name(w.name)
	}
	same := func(kind string, got []jm, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || (bounded && g.Bound != m.Bound) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, this package %+v", kind, i, g, m)
			}
			if !unitRE.MatchString(m.Unit) || (bounded && (m.Bound <= 0 || m.Bound > 0.25)) {
				t.Errorf("%s: unit %q or bound %v out of range", m.Name, m.Unit, m.Bound)
			}
			name(m.Name)
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, true)
	same("per-layer", doc.PerLayer, perLayer, false)
	if _, ok := findMetric(endToEnd, "setup_s"); !ok {
		t.Error("setup_s must be an end-to-end metric")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// TestQuantile pins quantile to Python's statistics.quantiles(xs, n=4),
// which the driver judges spreads by.
func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles → [2.75, 5.5, 8.25]
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "x_per_s", Better: "higher", Bound: 0.10}
	exact := metric{Name: "x_ops", Exact: true}
	tight := func(v float64) side { return side{v * 0.99, v * 1.01} }
	loose := func(v float64) side { return side{v * 0.9, v * 1.1} }
	for _, c := range []struct {
		m        metric
		old, cur side
		want     string
	}{
		{lower, tight(100), tight(105), "same"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(85), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(115), "better"},
		{lower, loose(100), loose(105), "unresolved"},
		{lower, loose(100), loose(150), "worse"},
		{lower, side{100}, side{104}, "same"},
		{exact, side{7, 7}, side{7}, "same"},
		{exact, side{7, 7}, side{7, 8}, "worse"},
	} {
		if got := verdict(c.m, c.old, c.cur); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.m.Name, c.old, c.cur, got, c.want)
		}
	}
}

// TestCorruptGoldenFails shows that a failed reference check fails the
// command: run on a copy of the program sets in which one golden value is
// wrong, scripts-vm must not succeed (the command exits with status 1).
func TestCorruptGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts junicond")
	}
	dir := t.TempDir()
	err := fs.WalkDir(programFS, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, path), 0o755)
		}
		data, err := fs.ReadFile(programFS, path)
		if err != nil {
			return err
		}
		if path == "vm/primes.golden" {
			data = []byte(strings.Replace(string(data), "\n46\n", "\n47\n", 1))
		}
		return os.WriteFile(filepath.Join(dir, path), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	builtin := programFS
	defer func() { programDir, programFS = "", builtin }()
	// Set-up warms the lane up and refuses to go on when a check fails
	// there already; either way the command must not succeed.
	if code := cli([]string{"-workload", "scripts-vm", "-quick", "-programs", dir}); code != 1 {
		t.Fatalf("a run of scripts-vm with a corrupted golden file exited with status %d, want 1", code)
	}
}

// TestQuickLedger runs the whole harness the way `go run . -out DIR
// -quick` does: all seven workloads, untraced and traced, every check on,
// every file written; then compares the ledger with itself and with a
// copy whose opcode count differs.
func TestQuickLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts junicond; takes about a minute")
	}
	dir := t.TempDir()
	if code := cli([]string{"-seed", "1", "-out", dir, "-quick"}); code != 0 {
		t.Fatalf("the quick ledger exited with status %d", code)
	}
	led, err := readLedger(filepath.Join(dir, "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Runs) != 2*len(workloads()) || len(led.Traced) != len(workloads()) {
		t.Fatalf("ledger has %d runs and %d traced passes, want %d and %d", len(led.Runs), len(led.Traced), 2*len(workloads()), len(workloads()))
	}
	for _, r := range led.Runs {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
		w, _ := findWorkload(r.Workload)
		for _, m := range append(append([]metric{}, endToEnd...), laneMetrics...) {
			if m.On != "" && m.On != w.lane {
				continue
			}
			if s, ok := r.Metrics[m.Name]; !ok || !(s.Value > 0) {
				t.Errorf("%s: metric %s = %v", r.Workload, m.Name, s.Value)
			}
		}
	}
	for _, r := range led.Traced {
		for _, m := range perLayer {
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", r.Workload, m.Name)
			}
		}
	}
	var spans struct{ TraceEvents []chromeEvent }
	data, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil || len(spans.TraceEvents) == 0 {
		t.Errorf("spans.json: %d events, %v", len(spans.TraceEvents), err)
	}
	var passes []traced
	if data, err = os.ReadFile(filepath.Join(dir, "layers.json")); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &passes); err != nil || len(passes) != len(workloads()) {
		t.Fatalf("layers.json: %d passes, %v", len(passes), err)
	}
	for _, p := range passes {
		if p.Budget.MeasuredMs <= 0 || len(p.Budget.Terms) == 0 || len(p.Layers) == 0 {
			t.Errorf("%s: empty budget row or span table", p.Workload)
		}
	}

	same := filepath.Join(dir, "ledger.json")
	if err := compareLedgers(same, same); err != nil {
		t.Errorf("a ledger compared with itself: %v", err)
	}
	led.Traced[0].Metrics["vm.ops_executed"] = Stat{Value: led.Traced[0].Metrics["vm.ops_executed"].Value + 1}
	other := filepath.Join(dir, "other.json")
	if err := writeJSON(other, led); err != nil {
		t.Fatal(err)
	}
	if err := compareLedgers(same, other); err == nil {
		t.Error("an exact count that changed by one compared as not worse")
	}
}

// TestFailedRunStillReports: a bar none of whose operations passed its
// check has no median, and the run must still print its result line with
// the attempted and failed counts.
func TestFailedRunStillReports(t *testing.T) {
	r := laneResult{metrics: map[string]Stat{}, attempted: 3, failed: 3}
	r.endToEnd(summarize(nil, "ms"), summarize(nil, "ms"), math.NaN())
	res := Result{Workload: "dist-wordcount", Attempted: 3, Failed: 3, Metrics: medianOf([]laneResult{r})}
	if err := printContract(res, endToEnd[1:]); err != nil {
		t.Fatal(err)
	}
}

// TestForeignDebugListener: a debug port that another process took between
// its reservation and the daemon's start must not be read as the daemon's.
func TestForeignDebugListener(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"cmdline": ["/elsewhere/junicond"], "junicon": {}}`)
	}))
	defer srv.Close()
	d := &daemon{cmd: exec.Command("/here/junicond"), debug: srv.URL}
	if err := d.waitDebug(); err == nil {
		t.Fatal("another process's debug listener was taken for the daemon's own")
	}
}
