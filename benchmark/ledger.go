package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// Ledger is the file one whole run writes: every workload's end-to-end
// and per-layer numbers. -compare reads two of them.
type Ledger struct {
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Runs    []Result `json:"runs"`   // untraced, one per workload and seed: the end-to-end metrics
	Traced  []Result `json:"traced"` // traced, one per workload: the per-layer metrics
}

// tracedRun is what a traced run hands back to writeLedger.
type tracedRun struct {
	Pass   *traced       `json:"pass"`
	Events []chromeEvent `json:"events"`
}

// spawnRun makes one run in a process of its own — the way the driver
// makes them, so the ledger's numbers are the driver's: no run inherits
// another's heap, pools or parked goroutines — and reads its result back
// into v.
func spawnRun(w workload, seed int64, trace int, o options, v any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := filepath.Join(o.work, "run.json")
	defer os.Remove(file)
	cmd := exec.Command(exe, "-one", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-src", o.src, "-programs", programDir, "-result", file)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(file)
	if err != nil {
		return fmt.Errorf("%s: %v", w.name, runErr) // it never got as far as a result
	}
	return json.Unmarshal(data, v)
}

// writeLedger runs every workload (or the one named) untraced on seeds
// seed, seed+1, … (runs of them, so that -compare can tell a change from
// the spread between runs), then makes its traced pass on the first seed
// in a fifth of the time, and writes ledger.json, layers.json (budget
// rows and span self times) and spans.json into o.work. It fails if any
// operation failed its reference check.
func writeLedger(only string, seed int64, runs int, o options) error {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	led := Ledger{Seed: seed, Seconds: o.seconds}
	var passes []*traced
	var events []chromeEvent
	failed := 0
	for pid, w := range workloads() {
		if only != "" && w.name != only {
			continue
		}
		for i := 0; i < runs; i++ {
			var res Result
			if err := spawnRun(w, seed+int64(i), 0, o, &res); err != nil {
				return err
			}
			led.Runs = append(led.Runs, res)
			failed += res.Failed
		}
		short := o
		short.seconds = o.seconds / 5
		var t tracedRun
		if err := spawnRun(w, seed, 1, short, &t); err != nil {
			return err
		}
		led.Traced = append(led.Traced, t.Pass.Result)
		passes = append(passes, t.Pass)
		for _, ev := range t.Events {
			ev.Pid = pid + 1 // one process per workload in the trace viewer
			events = append(events, ev)
		}
		failed += t.Pass.Failed
	}
	if len(led.Runs) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	for name, v := range map[string]any{
		"ledger.json": led,
		"layers.json": passes,
		"spans.json":  map[string]any{"traceEvents": events, "displayTimeUnit": "ns"},
	} {
		if err := writeJSON(filepath.Join(o.work, name), v); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed their reference check", failed)
	}
	return nil
}

func printBudget(b budgetRow) {
	fmt.Printf("budget: %s (%s) on %s\n", b.Headline, b.Operation, b.Workload)
	for _, t := range b.Terms {
		fmt.Printf("  %-34s %12.1f x %12.4f %-3s = %10.4f ms\n", t.Layer, t.Count, t.Cost, t.Unit, t.Ms)
	}
	fmt.Printf("  predicted %.4f ms, measured %.4f ms, unattributed %.1f%%\n", b.PredictedMs, b.MeasuredMs, b.UnattributedPct)
}
