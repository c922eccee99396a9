package main

import "math"

// metric describes one number of the ledger. BENCHMARK.json at the root
// of the repository repeats endToEnd and perLayer; TestBenchmarkJSON keeps
// the two equal.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by
	Exact  bool    // a count that must repeat exactly between runs of one commit
	Moves  string  // per-layer only: the end-to-end metric@workload it should move
	On     string  // lane metrics only: the lane that reports it
}

// endToEnd are the numbers every workload reports, whatever its lane:
// BENCHMARK.json's reader wants each end-to-end metric from each
// workload, so these are named by what they are in any lane and issueName
// says which of ISSUE 11's metrics each one is in a given lane. Every
// workload has a headline operation, what its user pays, and a reference
// operation, the same result got without the layer under test, run
// alternately. Both are reported in ms as measured — the reference runs
// much of the code the headline runs, so a slowdown they share cancels in
// their ratio and shows in these two only — beside the ratio, which is how
// the paper states its own result (Figure 6 is normalised to the native
// map-reduce) and holds still on a machine whose speed does not. README.md,
// "Spread", has the measurements behind the bounds.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "base_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "overhead_x", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// laneMetrics are those of ISSUE 11's end-to-end metrics that are a number
// of their own in one lane and none of the above. They are printed by
// every run of their lane, kept in the ledger and judged by -compare with
// the bound the issue gave them, but BENCHMARK.json cannot carry them: a
// workload of another lane has no such number to report.
var laneMetrics = []metric{
	{Name: "junicon_seq_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: "fig6"},
	{Name: "junicon_pipeline_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: "fig6"},
	{Name: "junicon_dataparallel_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: "fig6"},
	{Name: "junicon_mapreduce_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: "fig6"},
	{Name: "load_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: "scripts"},
	{Name: "run_tree_opt_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: "scripts"},
	{Name: "rtt_us_p50", Unit: "us", Better: "lower", Bound: 0.10, On: "stream"},
	{Name: "stream_ms_p99", Unit: "ms", Better: "lower", Bound: 0.20, On: "storm"},
}

// issueName says, per lane, which metric of ISSUE 11 an end-to-end metric
// is there: one number, stored under the name every workload shares and
// printed with the issue's name beside it. The headline and the reference
// that have no name in the issue are described in README.md.
var issueName = map[string]map[string]string{
	"fig6":    {"base_ms_p50": "native_mapreduce_ms", "overhead_x": "embed_overhead_x"},
	"scripts": {"op_ms_p50": "run_vm_ms", "base_ms_p50": "run_tree_ms"},
	"stream":  {"ops_per_s": "values_per_s"},
	"storm":   {"ops_per_s": "streams_per_s"},
	"dist":    {"op_ms_p50": "dist_job_ms"},
}

func findMetric(list []metric, name string) (metric, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// endToEnd fills in the metrics every workload reports from the lane's
// headline and reference operation times, both in ms, and the headline's
// rate. The ratio is taken here, once per set-up, and the run reports the
// median over its set-ups: whatever slows one set-up's stretch of time
// slows both of its bars.
func (r *laneResult) endToEnd(op, base Stat, perSecond float64) {
	r.metrics["op_ms_p50"], r.metrics["base_ms_p50"] = op, base
	r.metrics["overhead_x"] = Stat{Value: op.Value / base.Value, Unit: "ratio", Q1: op.Q1 / base.Value, Q3: op.Q3 / base.Value, N: op.N}
	r.metrics["ops_per_s"] = Stat{Value: perSecond, Unit: "1/s", Q1: perSecond, Q3: perSecond, N: op.N}
}

// finite replaces what cannot be written as JSON — the median of a bar
// none of whose operations passed its check — by zero, so that a run that
// failed still reports how many operations it attempted and failed.
func finite(metrics map[string]Stat) {
	ok := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	for name, s := range metrics {
		s.Value, s.Q1, s.Q3 = ok(s.Value), ok(s.Q1), ok(s.Q3)
		metrics[name] = s
	}
}

// median of xs, which it leaves in order.
func median(xs []float64) float64 { return summarize(xs, "").Value }
