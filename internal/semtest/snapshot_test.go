package semtest

import (
	"path/filepath"
	"strings"
	"testing"

	"junicon/internal/checkpoint"
	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/value"
	"junicon/internal/wordcount"
)

// snapshotCuts is how many of a driver's first yields get a snapshot.
const snapshotCuts = 64

// snapshotSkips names the cases that refuse a snapshot, with the reason
// the refusal must give: each holds state a snapshot cannot carry (vm's
// Capture and checkpoint's strict encoder say why).
var snapshotSkips = map[string]string{
	"concurrent/evens":                   "host-resident value", // a co-expression in a slot
	"concurrent/piped":                   "live !x over a host generator",
	"concurrent/refreshed":               "live !x over a host generator",
	"concurrent/restartPipe":             "host-resident value", // a pipe in a slot
	"coexpr/stepped":                     "host-resident value",
	"scan/expression":                    "live call site with opaque callee", // a scan builtin
	"lowered/shared-first-class":         "shared cells of a bare <>",
	"lowered/bang-target":                "shared cells of a bare <> or an assignment target",
	"lowered/alternative-target":         "shared cells of a bare <> or an assignment target",
	"lowered/shared-inside-coexpression": "host-resident value",
	"aug/boxed-slot":                     "shared cells of a bare <> or an assignment target",
	"aug/bang":                           "shared cells of a bare <> or an assignment target",
	"declared/builtin-name":              "live call site with opaque callee", // a builtin generator
}

// TestSnapshotAtEveryYield is the evidence that every resume point the
// pass after lowering remapped still resumes: for every driver of the
// benchmark's vm program set and every corpus case, a snapshot taken at
// each of the first 64 yields and restored into a fresh interpreter
// delivers exactly the rest of the uninterrupted trace.
func TestSnapshotAtEveryYield(t *testing.T) {
	type unit struct {
		name, program, expr string
		load                func() (*interp.Interp, error)
	}
	var units []unit
	lines := wordcount.GenerateLines(100, 10, 1)
	var vmSet []string
	for _, path := range repoGlob(t, "benchmark/programs/vm/*.jn") {
		vmSet = append(vmSet, readFile(t, path))
	}
	program := strings.Join(vmSet, "\n")
	loadVM := func() (*interp.Interp, error) {
		in, err := wordcount.NewInterpreter(lines, wordcount.Light, interp.WithVM())
		if err == nil {
			err = in.LoadProgram(program)
		}
		return in, err
	}
	for _, path := range repoGlob(t, "benchmark/programs/vm/*.jn") {
		for _, line := range strings.Split(readFile(t, path), "\n") {
			if d, ok := strings.CutPrefix(line, "# drive:"); ok {
				name := "vm/" + strings.TrimSuffix(filepath.Base(path), ".jn") + "/" + strings.TrimSpace(d)
				units = append(units, unit{name, program, strings.TrimSpace(d), loadVM})
			}
		}
	}
	for _, c := range corpus(t) {
		c := c
		units = append(units, unit{c.Name, c.Program, c.Expr, func() (*interp.Interp, error) {
			return newInterp(c, interp.WithVM())
		}})
	}

	run := func(g core.Gen, max int) []string {
		var out []string
		err := core.Protect(func() {
			for len(out) < max {
				v, ok := g.Next()
				if !ok {
					return
				}
				out = append(out, value.Image(value.Deref(v)))
			}
		})
		if err != nil {
			out = append(out, "! "+err.Error())
		}
		return out
	}
	fresh := func(t *testing.T, u unit) *interp.Interp {
		in, err := u.load()
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		return in
	}
	for _, u := range units {
		t.Run(u.name, func(t *testing.T) {
			in := fresh(t, u)
			g, err := in.EvalGen(u.expr)
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			ref := run(g, DefaultMax)
			for k := 1; k <= len(ref) && k <= snapshotCuts; k++ {
				in := fresh(t, u)
				g, err := in.EvalGen(u.expr)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				if got := run(g, k); strings.Join(got, "\n") != strings.Join(ref[:k], "\n") {
					t.Fatalf("cut %d: prefix %q, want %q", k, got, ref[:k])
				}
				if strings.HasPrefix(ref[k-1], "! ") {
					break // the error ended the run: nothing is left to resume
				}
				blob, err := checkpoint.Snapshot(g, checkpoint.Meta{Program: u.program, Expr: u.expr, Produced: uint64(k)})
				if checkpoint.IsRefused(err) {
					if want, ok := snapshotSkips[u.name]; !ok || !strings.Contains(err.Error(), want) {
						t.Fatalf("cut %d: %v (skips list %q)", k, err, want)
					}
					t.Logf("skipped at cut %d: %v", k, err)
					return
				}
				if err != nil {
					t.Fatalf("cut %d: snapshot: %v", k, err)
				}
				g2, _, err := fresh(t, u).RestoreSnapshot(blob)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", k, err)
				}
				rest := run(g2, len(ref)-k+1)
				if got, want := strings.Join(rest, "\n"), strings.Join(ref[k:], "\n"); got != want {
					t.Fatalf("cut %d: resumed\n%s\nwant\n%s", k, got, want)
				}
			}
			if _, listed := snapshotSkips[u.name]; listed {
				t.Errorf("listed in snapshotSkips but no cut refused")
			}
		})
	}
}
