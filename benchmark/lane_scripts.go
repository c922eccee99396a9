package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"strings"
	"time"

	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/value"
	"junicon/internal/vm"
	"junicon/internal/wordcount"
)

//go:embed programs
var embedded embed.FS

// programFS holds the program sets, one directory each: the embedded
// copy, or the directory -programs names (programDir), which scripts
// children are told about too.
var (
	programFS  = mustSub(embedded, "programs")
	programDir string
)

func mustSub(fsys fs.FS, dir string) fs.FS {
	sub, err := fs.Sub(fsys, dir)
	if err != nil {
		panic(err)
	}
	return sub
}

// program is one file of a program set: declarations, the driver
// expressions named by its "# drive:" header lines, and the golden trace
// each driver must reproduce.
type program struct {
	name    string
	src     string
	drivers []string
	golden  map[string][]string // driver → value images, in order
}

// maxResults bounds a drain: the sets are finite well under it, so
// reaching it means an evaluator invented values.
const maxResults = 100_000

// loadPrograms reads <set>/*.jn with their .golden files.
func loadPrograms(set string) ([]program, error) {
	entries, err := fs.ReadDir(programFS, set) // in name order
	if err != nil {
		return nil, err
	}
	var out []program
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".jn") {
			continue
		}
		src, err := fs.ReadFile(programFS, path.Join(set, ent.Name()))
		if err != nil {
			return nil, err
		}
		p := program{name: set + "/" + strings.TrimSuffix(ent.Name(), ".jn"), src: string(src)}
		for _, line := range strings.Split(p.src, "\n") {
			if d, ok := strings.CutPrefix(line, "# drive:"); ok {
				p.drivers = append(p.drivers, strings.TrimSpace(d))
			}
		}
		if len(p.drivers) == 0 {
			return nil, fmt.Errorf("%s: no \"# drive:\" line", p.name)
		}
		gold, err := fs.ReadFile(programFS, path.Join(set, strings.TrimSuffix(ent.Name(), ".jn")+".golden"))
		if err != nil {
			return nil, err
		}
		p.golden = parseGolden(string(gold))
		out = append(out, p)
	}
	return out, nil
}

// parseGolden reads "> driver" headers, each followed by one value image
// per line.
func parseGolden(text string) map[string][]string {
	golden := map[string][]string{}
	driver := ""
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if d, ok := strings.CutPrefix(line, "> "); ok {
			driver = d
			golden[driver] = []string{}
		} else if driver != "" {
			golden[driver] = append(golden[driver], line)
		}
	}
	return golden
}

// evaluator is one of the three ways a script can run.
type evaluator struct {
	name   string
	metric string
	opts   []interp.Option
}

var evaluators = []evaluator{
	{"tree", "base_ms_p50", nil},
	{"tree-opt", "run_tree_opt_ms", []interp.Option{interp.WithOptimize()}},
	{"vm", "op_ms_p50", []interp.Option{interp.WithVM()}},
}

// scriptCorpus is the word-count corpus of the vm set. The program sets
// are fixed inputs, so it does not follow the seed: the golden file holds
// its total.
var scriptCorpus = wordcount.GenerateLines(100, wordsOnLine, 1)

// newInterp makes a fresh interpreter for a set. The vm set holds Figure
// 3's word count, whose host stages are natives, so its interpreters
// start from wordcount.NewInterpreter.
func newInterp(set string, opts ...interp.Option) (*interp.Interp, error) {
	if set == "vm" {
		return wordcount.NewInterpreter(scriptCorpus, wordcount.Light, opts...)
	}
	return interp.New(append([]interp.Option{interp.WithOutput(io.Discard)}, opts...)...), nil
}

// loadAll makes a fresh interpreter and loads the whole set into it.
func loadAll(set string, programs []program, opts ...interp.Option) (*interp.Interp, error) {
	in, err := newInterp(set, opts...)
	if err != nil {
		return nil, err
	}
	for _, p := range programs {
		if err := in.LoadProgram(p.src); err != nil {
			return nil, fmt.Errorf("load %s: %w", p.name, err)
		}
	}
	return in, nil
}

// drain evaluates one driver expression to exhaustion and returns the
// images of its results; a runtime error ends the trace with a "!" line.
func drain(in *interp.Interp, expr string) []string {
	images := []string{}
	g, err := in.EvalGen(expr)
	if err == nil {
		err = core.Protect(func() {
			for len(images) < maxResults {
				v, ok := g.Next()
				if !ok {
					return
				}
				images = append(images, value.Image(value.Deref(v)))
			}
		})
	}
	if err != nil {
		images = append(images, "! "+err.Error())
	}
	return images
}

func sameTrace(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scriptRun is what one child process reports: one evaluator, one fresh
// interpreter, the whole set loaded and every driver drained once.
type scriptRun struct {
	LoadMs    float64  `json:"load_ms"`
	RunMs     float64  `json:"run_ms"`
	Ops       float64  `json:"ops"` // opcodes the VM executed, when profiled
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
}

// runSet is the body of a scripts child process.
func runSet(set string, ev evaluator, profile bool) (scriptRun, error) {
	var r scriptRun
	programs, err := loadPrograms(set)
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	in, err := loadAll(set, programs, ev.opts...)
	r.LoadMs = time.Since(t0).Seconds() * 1e3
	if err != nil {
		return r, err
	}
	if profile {
		vm.EnableProfiling()
	}
	for _, p := range programs {
		for _, d := range p.drivers {
			t0 := time.Now()
			got := drain(in, d)
			r.RunMs += time.Since(t0).Seconds() * 1e3
			r.Attempted++
			if !sameTrace(got, p.golden[d]) {
				r.Failed++
				r.Notes = append(r.Notes, fmt.Sprintf("%s %s under %s: trace differs from golden (%d values, want %d)",
					p.name, d, ev.name, len(got), len(p.golden[d])))
			}
		}
	}
	if profile {
		vm.DisableProfiling()
		for _, pp := range vm.SnapshotProfile() {
			r.Ops += float64(pp.Total)
		}
	}
	return r, nil
}

// childMain is the scripts child: `-child SET EVALUATOR PROGRAMS-DIR
// PROFILE`. Every script run gets a process of its own, as a script
// author's does: the tree walk parks one coroutine for every procedure
// call that returns without being resumed and never releases it, so runs
// repeated in one process slow each other down (README.md, "Findings").
// It reports whether args asked for a child.
func childMain(args []string) bool {
	if len(args) != 5 || args[0] != "-child" {
		return false
	}
	if args[3] != "" {
		programFS = os.DirFS(args[3])
	}
	for _, ev := range evaluators {
		if ev.name != args[2] {
			continue
		}
		r, err := runSet(args[1], ev, args[4] == "profile")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		json.NewEncoder(os.Stdout).Encode(r)
		return true
	}
	fmt.Fprintln(os.Stderr, "benchmark child: unknown evaluator", args[2])
	os.Exit(2)
	return true
}

// spawnSet runs one evaluator over the set in a fresh process.
func spawnSet(set string, ev evaluator, profile bool) (scriptRun, error) {
	var r scriptRun
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	mode := ""
	if profile {
		mode = "profile"
	}
	cmd := exec.Command(exe, "-child", set, ev.name, programDir, mode)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("scripts child (%s, %s): %w", set, ev.name, err)
	}
	return r, json.Unmarshal(out, &r)
}

// runScripts runs the set once under each evaluator per iteration, each
// run in a fresh process. An operation is one drain of one driver
// expression; it fails unless its trace equals the golden file's. The
// headline is one pass over the set's drivers under the VM (the issue's
// run_vm_ms), the reference the same pass under the tree walk
// (run_tree_ms).
func (e *env) runScripts(b budget, tr *recorder) laneResult {
	r := laneResult{metrics: map[string]Stat{}}
	var load []float64
	runs := make([][]float64, len(evaluators))
	drivers := 0
	for _, p := range e.programs {
		drivers += len(p.drivers)
	}
	b.loop(func(i int) {
		for k := range evaluators {
			j := (i + k) % len(evaluators)
			ev := evaluators[j]
			run := tr.newRun()
			root := tr.begin("scripts."+ev.name+" (child process)", -1, run)
			sr, err := spawnSet(e.w.scripts, ev, false)
			tr.end(root)
			tr.within(root, run, phase{"interp.LoadProgram", sr.LoadMs}, phase{"interp.drain", sr.RunMs})
			if err != nil {
				r.attempted++
				r.fail("%v", err)
				continue
			}
			r.attempted += sr.Attempted
			r.failed += sr.Failed
			r.notes = append(r.notes, sr.Notes...)
			if sr.Failed > 0 {
				continue
			}
			if ev.name == "vm" {
				load = append(load, sr.LoadMs)
			}
			runs[j] = append(runs[j], sr.RunMs)
		}
	})
	r.metrics["load_ms"] = summarize(load, "ms")
	for j, ev := range evaluators {
		r.metrics[ev.metric] = summarize(runs[j], "ms")
	}
	vm := runs[len(runs)-1]
	r.endToEnd(r.metrics["op_ms_p50"], r.metrics["base_ms_p50"], float64(drivers)*1e3/mean(vm))
	return r
}
