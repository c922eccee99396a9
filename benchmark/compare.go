package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func readLedger(path string) (Ledger, error) {
	var led Ledger
	data, err := os.ReadFile(path)
	if err != nil {
		return led, err
	}
	if err := json.Unmarshal(data, &led); err != nil {
		return led, fmt.Errorf("%s: %w", path, err)
	}
	return led, nil
}

// side is one ledger's values of one (metric, workload) pair, one value
// per run.
type side []float64

func (s side) median() float64 { return median(append([]float64(nil), s...)) }

// spread is how far the side's own runs lie apart, as a share of their
// median: the interquartile range from four runs up, the whole range
// below that, nothing for a single run.
func (s side) spread() float64 {
	if len(s) < 2 {
		return 0
	}
	if len(s) >= 4 {
		return spread(s)
	}
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	return (xs[len(xs)-1] - xs[0]) / s.median()
}

// verdict judges one (metric, workload) row: the new median against the
// old one by the metric's own bound. A row whose runs lie further apart
// than the bound cannot be told from noise and is unresolved, unless the
// medians differ by more than that spread too. A count that must repeat
// is worse as soon as it differs.
func verdict(m metric, old, cur side) string {
	if m.Exact {
		for _, v := range append(append(side{}, old...), cur...) {
			if v != old[0] {
				return "worse"
			}
		}
		return "same"
	}
	change := (cur.median() - old.median()) / old.median()
	if m.Better == "higher" {
		change = -change
	}
	noise := max(old.spread(), cur.spread())
	switch {
	case change > m.Bound && change > noise:
		return "worse"
	case -change > m.Bound && -change > noise:
		return "better"
	case noise > m.Bound:
		return "unresolved"
	default:
		return "same"
	}
}

// collect gathers each (workload, metric) pair's values over the results.
func collect(results []Result) map[string]map[string]side {
	out := map[string]map[string]side{}
	for _, r := range results {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]side{}
		}
		for name, s := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], s.Value)
		}
	}
	return out
}

// failedShare is the share of a workload's operations that failed.
func failedShare(results []Result, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range results {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareLedgers prints one row per (metric, workload) pair of the
// untraced runs, the end-to-end metrics and those of the workload's lane,
// and per per-layer metric of the traced passes, and fails on any worse
// row or a higher share of failed operations.
func compareLedgers(oldPath, newPath string) error {
	old, err := readLedger(oldPath)
	if err != nil {
		return err
	}
	cur, err := readLedger(newPath)
	if err != nil {
		return err
	}
	worse := 0
	rows := func(olds, curs []Result, list []metric) {
		o, c := collect(olds), collect(curs)
		for _, w := range workloads() {
			for _, m := range list {
				os, cs := o[w.name][m.Name], c[w.name][m.Name]
				if len(os) == 0 || len(cs) == 0 || (m.Bound == 0 && !m.Exact) {
					continue
				}
				v := verdict(m, os, cs)
				if v == "worse" {
					worse++
				}
				change := 0.0
				if os.median() != 0 {
					change = 100 * (cs.median() - os.median()) / os.median()
				}
				name := m.Name
				if issue := issueName[w.lane][name]; issue != "" {
					name += " = " + issue
				}
				fmt.Printf("%-17s %-34s %13.4f -> %13.4f %-5s %+6.1f%%  spread %4.1f%% %4.1f%%  bound %2.0f%%  %s\n",
					w.name, name, os.median(), cs.median(), m.Unit, change,
					100*os.spread(), 100*cs.spread(), 100*m.Bound, v)
			}
		}
	}
	rows(old.Runs, cur.Runs, append(append([]metric{}, endToEnd...), laneMetrics...))
	rows(old.Traced, cur.Traced, perLayer)
	for _, w := range workloads() {
		all := func(l Ledger) []Result { return append(append([]Result{}, l.Runs...), l.Traced...) }
		if was, is := failedShare(all(old), w.name), failedShare(all(cur), w.name); is > was {
			worse++
			fmt.Printf("%-17s failed operations %.4f%% -> %.4f%%  worse\n", w.name, 100*was, 100*is)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse", worse)
	}
	return nil
}
