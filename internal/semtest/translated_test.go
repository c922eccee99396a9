package semtest

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/meta"
	jparser "junicon/internal/parser"
	"junicon/internal/translate"
	"junicon/internal/value"
)

// The translated lane. Every piece of Junicon the repository ships — the
// testdata/ programs, the examples' embedded regions, the differential
// corpus's programs and the benchmark's program set — is emitted by the
// translator into a committed package under translated/, together with
// the expressions it is driven by (corpus cases, example evaluations,
// `# drive:` lines), each wrapped in a procedure lane_driver_<i>. Each
// driver drained through the package must reproduce the sequential
// oracle's trace: the tree walk evaluating the same expressions, in the
// same order, on one interpreter that loaded the same program. Natives
// the sources call are stubbed identically on both sides.
//
// Translated generators are state machines, not parked coroutines: after
// every drain, and after abandoning every driver after its first value,
// the goroutine count returns to its baseline.

var updateLane = flag.Bool("update", false, "rewrite the translated lane's packages under translated/")

// laneProgram is one package of the lane.
type laneProgram struct {
	pkg     string   // Go package name and directory under translated/
	src     string   // the program
	drivers []string // expressions, evaluated in order after the load
}

// translatedLane is what the lane drives in a generated package.
type translatedLane struct {
	globals map[string]*value.Var
	natives map[string]*value.Native
	run     func()
}

// lanePrograms collects the lane's sources and drivers.
func lanePrograms(t *testing.T) []*laneProgram {
	t.Helper()
	var out []*laneProgram
	bySrc := map[string]*laneProgram{}
	add := func(pkg, src string, drivers ...string) *laneProgram {
		lp := &laneProgram{pkg: pkg, src: src, drivers: drivers}
		out = append(out, lp)
		return lp
	}
	ident := regexp.MustCompile(`[^a-z0-9]+`)
	name := func(prefix, s string) string {
		return prefix + "_" + strings.Trim(ident.ReplaceAllString(strings.ToLower(s), "_"), "_")
	}
	for _, path := range repoGlob(t, "testdata/*.jn") {
		src := readFile(t, path)
		bySrc[src] = add(name("testdata", strings.TrimSuffix(filepath.Base(path), ".jn")), src)
	}
	// A corpus case joins the package of its program: testdata's, or one
	// named after its first case.
	for _, c := range corpus(t) {
		lp := bySrc[c.Program]
		if lp == nil {
			pkg := name("corpus", strings.SplitN(c.Name, "/", 2)[0])
			if c.Program == "" {
				pkg = "corpus_expressions"
			}
			lp = add(pkg, c.Program)
			bySrc[c.Program] = lp
		}
		lp.drivers = append(lp.drivers, c.Expr)
	}
	for _, path := range repoGlob(t, "examples/*/main.go") {
		var progs, drivers []string
		for _, s := range hostSources(t, path) {
			if s.expr {
				drivers = append(drivers, s.src)
			} else {
				progs = append(progs, s.src)
			}
		}
		if len(progs)+len(drivers) > 0 {
			add(name("example", filepath.Base(filepath.Dir(path))), strings.Join(progs, "\n"), drivers...)
		}
	}
	for _, path := range repoGlob(t, "examples/*/*.gmix") {
		segs, err := meta.Parse(readFile(t, path))
		if err != nil {
			t.Fatalf("lane: %s: %v", path, err)
		}
		var progs, drivers []string
		for _, r := range meta.Regions(segs) {
			if r.Lang() != "junicon" {
				continue
			}
			if _, perr := jparser.ParseProgram(r.Raw); perr != nil {
				drivers = append(drivers, r.Raw)
			} else {
				progs = append(progs, r.Raw)
			}
		}
		add(name("example", strings.TrimSuffix(filepath.Base(path), ".gmix")+"_gmix"), strings.Join(progs, "\n"), drivers...)
	}
	for _, path := range repoGlob(t, "benchmark/programs/*/*.jn") {
		src := readFile(t, path)
		var drivers []string
		for _, line := range strings.Split(src, "\n") {
			if d, ok := strings.CutPrefix(line, "# drive:"); ok {
				drivers = append(drivers, strings.TrimSpace(d))
			}
		}
		add(name("bench_"+filepath.Base(filepath.Dir(path)), strings.TrimSuffix(filepath.Base(path), ".jn")), src, drivers...)
	}
	// A driver that is not an expression has nothing to drain.
	for _, lp := range out {
		kept := lp.drivers[:0]
		for _, d := range lp.drivers {
			if _, err := jparser.ParseExpression(d); err == nil && strings.TrimSpace(d) != "" {
				kept = append(kept, d)
			}
		}
		lp.drivers = kept
	}
	return out
}

// laneSource is the program the lane translates: the source, then one
// procedure per driver.
func (lp *laneProgram) laneSource() string {
	var b strings.Builder
	b.WriteString(lp.src)
	for i, d := range lp.drivers {
		fmt.Fprintf(&b, "\ndef lane_driver_%d() { suspend (%s); }\n", i, d)
	}
	return b.String()
}

// stubs lists the natives a lane program calls.
func (lp *laneProgram) stubs() []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range regexp.MustCompile(`::(\w+)`).FindAllStringSubmatch(lp.laneSource(), -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			names = append(names, m[1])
		}
	}
	return names
}

func stubNative(...value.V) (value.V, error) { return nil, nil }

// TestTranslatedLaneIsFresh translates every lane program and requires the
// committed packages (and the registry that imports them) to match; -update
// rewrites them. Every program translates, and no emitted code parks a
// coroutine.
func TestTranslatedLaneIsFresh(t *testing.T) {
	want := map[string]string{}
	var pkgs []string
	for _, lp := range lanePrograms(t) {
		out, err := translate.TranslateProgram(lp.laneSource(), translate.Options{Package: lp.pkg, Diagnostics: io.Discard})
		if err != nil {
			t.Errorf("%s: %v", lp.pkg, err)
			continue
		}
		for _, coroutine := range []string{"core.NewGen", "core.GenProc", "iter.Pull"} {
			if strings.Contains(out, coroutine) {
				t.Errorf("%s: emitted code parks a coroutine (%s)", lp.pkg, coroutine)
			}
		}
		want[filepath.Join("translated", lp.pkg, lp.pkg+".go")] = out
		pkgs = append(pkgs, lp.pkg)
	}
	want["translated_lanes_test.go"] = laneRegistry(t, pkgs)
	if *updateLane {
		os.RemoveAll("translated")
		for path, src := range want {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	committed, _ := filepath.Glob(filepath.Join("translated", "*", "*.go"))
	for _, path := range committed {
		if _, ok := want[path]; !ok {
			t.Errorf("%s: no lane program emits it", path)
		}
	}
	for path, src := range want {
		got, err := os.ReadFile(path)
		if err != nil || string(got) != src {
			t.Errorf("%s is stale; regenerate with:\n  go test -tags regen ./internal/semtest -run TestTranslatedLaneIsFresh -update", path)
		}
	}
}

// laneRegistry is the generated file that imports every lane package.
// The regen build tag leaves it out (translated_regen_test.go stands in),
// so -update runs when the committed packages no longer compile.
func laneRegistry(t *testing.T, pkgs []string) string {
	sort.Strings(pkgs)
	var b bytes.Buffer
	b.WriteString("// Code generated by TestTranslatedLaneIsFresh -update; DO NOT EDIT.\n\n//go:build !regen\n\npackage semtest\n\nimport (\n")
	for _, p := range pkgs {
		fmt.Fprintf(&b, "\t%q\n", "junicon/internal/semtest/translated/"+p)
	}
	b.WriteString(")\n\n// translatedLanes are the lane's packages by name.\nvar translatedLanes = map[string]translatedLane{\n")
	for _, p := range pkgs {
		fmt.Fprintf(&b, "\t%q: {%s.Globals, %s.Natives, %s.Run},\n", p, p, p, p)
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		t.Fatalf("lane registry: %v", err)
	}
	return string(src)
}

// TestTranslatedLane drains every driver through its translated package
// and requires the sequential oracle's trace, and its error if it raises
// one, with no goroutine left behind by a drain or by an abandoned driver.
func TestTranslatedLane(t *testing.T) {
	for _, lp := range lanePrograms(t) {
		lane, ok := translatedLanes[lp.pkg]
		if !ok {
			t.Errorf("%s: no translated package; regenerate with:\n  go test -tags regen ./internal/semtest -run TestTranslatedLaneIsFresh -update", lp.pkg)
			continue
		}
		t.Run(lp.pkg, func(t *testing.T) {
			in := interp.New(interp.WithOutput(io.Discard))
			for _, name := range lp.stubs() {
				in.RegisterNative(name, stubNative)
				lane.natives[name] = value.NewNative(name, stubNative)
			}
			loadErr := in.LoadProgram(lp.src)
			runErr := core.Protect(lane.run)
			if (loadErr != nil) != (runErr != nil) {
				t.Fatalf("load: oracle error %v, translated error %v", loadErr, runErr)
			}
			drivers := make([]*value.Proc, len(lp.drivers))
			for i, d := range lp.drivers {
				drivers[i] = lane.globals[fmt.Sprintf("lane_driver_%d", i)].Get().(*value.Proc)
				g, err := in.EvalGen(d)
				if err != nil {
					t.Fatalf("oracle %s: %v", d, err)
				}
				ref := drainGen(g, DefaultMax)
				base := runtime.NumGoroutine()
				got := drainGen(drivers[i].Call(), DefaultMax)
				if !got.Equal(ref) || got.Err != ref.Err {
					t.Errorf("%s diverged:\nref = %s %s\ngot = %s %s", d, ref, ref.Err, got, got.Err)
				}
				settled(t, base, "draining "+d)
			}
			for i, d := range lp.drivers {
				base := runtime.NumGoroutine()
				g := drivers[i].Call()
				_ = core.Protect(func() { g.Next() })
				g = nil
				settled(t, base, "abandoning "+d)
			}
		})
	}
}

// settled waits for the goroutine count to come back to base.
func settled(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("after %s: %d goroutines, baseline %d", after, runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}
