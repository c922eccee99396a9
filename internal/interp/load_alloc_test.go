//go:build !race

package interp_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/wordcount"
)

// A script's load runs in a fresh process every time, and what it
// allocates is still on the heap when the drivers start: a load that
// litters carries the process to the runtime's first collection (4 MB of
// heap) in the middle of the measured run. These tests hold the load of the
// ledger's `vm` program set to an allocation budget, and a whole fresh
// process — load plus every driver — to zero GC cycles under the default
// GOGC. (Race builds allocate differently; the budget is for plain ones.)
// The load's allocation count is a row of the root package's TestCosts,
// which fails on any rise.

// vmSet reads benchmark/programs/vm/*.jn (read-only) in name order, with
// the driver expressions of their "# drive:" header lines.
func vmSet(t *testing.T) (srcs, drivers []string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "benchmark", "programs", "vm", "*.jn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("benchmark/programs/vm not present")
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(b))
		for _, line := range strings.Split(string(b), "\n") {
			if d, ok := strings.CutPrefix(line, "# drive:"); ok {
				drivers = append(drivers, strings.TrimSpace(d))
			}
		}
	}
	return srcs, drivers
}

// loadVMSet is the ledger's load: Figure 3's word count, then one
// LoadProgram per file of the set.
func loadVMSet(srcs []string) (*interp.Interp, error) {
	in, err := wordcount.NewInterpreter(wordcount.GenerateLines(100, 10, 1), wordcount.Light, interp.WithVM())
	if err != nil {
		return nil, err
	}
	for _, src := range srcs {
		if err := in.LoadProgram(src); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func TestLoadAllocationBudget(t *testing.T) {
	const (
		maxBytes = 500 << 10 // 2.49 MB before PR 24, 0.29 MB after
		runs     = 20
	)
	srcs, _ := vmSet(t)
	if _, err := loadVMSet(srcs); err != nil { // warm the builtin tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := loadVMSet(srcs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("load of the vm set under WithVM: %d bytes in %d allocations", bytes, allocs)
	if bytes > maxBytes {
		t.Errorf("load allocates %d bytes in %d objects, budget %d bytes", bytes, allocs, maxBytes)
	}
}

const loadChildEnv = "JUNICON_TEST_LOAD_CHILD"

// TestFreshProcessFinishesUnderFirstGC runs load-plus-drivers in a process
// of its own, as a script author's run does, and requires that the
// collector never started.
func TestFreshProcessFinishesUnderFirstGC(t *testing.T) {
	srcs, drivers := vmSet(t)
	if os.Getenv(loadChildEnv) != "" {
		in, err := loadVMSet(srcs)
		if err != nil {
			t.Fatal(err)
		}
		results := 0
		for _, d := range drivers {
			g, err := in.EvalGen(d)
			if err == nil {
				err = core.Protect(func() { results += len(core.Drain(g, 0)) })
			}
			if err != nil {
				t.Fatalf("%s: %v", d, err)
			}
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		fmt.Printf("child: drivers=%d results=%d numgc=%d total_alloc=%d\n", len(drivers), results, m.NumGC, m.TotalAlloc)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFreshProcessFinishesUnderFirstGC$", "-test.v")
	for _, kv := range os.Environ() { // the default collector settings, whatever the caller's
		if !strings.HasPrefix(kv, "GOGC=") && !strings.HasPrefix(kv, "GOMEMLIMIT=") && !strings.HasPrefix(kv, "GODEBUG=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, loadChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`child: drivers=(\d+) results=(\d+) numgc=(\d+) total_alloc=(\d+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("child reported nothing:\n%s", out)
	}
	t.Logf("%s", m[0])
	if string(m[1]) != "12" {
		t.Errorf("child drained %s drivers, want the set's 12", m[1])
	}
	if string(m[3]) != "0" {
		t.Errorf("a fresh process ran %s GC cycles loading the vm set and draining its drivers, want 0", m[3])
	}
}
