package main

import (
	"fmt"
	"math"
	"time"

	"junicon/internal/telemetry"
	"junicon/internal/wordcount"
)

// headline names, per lane, the metric the traced pass is compared on
// and the budget row explains.
var headline = map[string]string{
	"fig6":    "junicon_pipeline_ms",
	"scripts": "load_ms",
	"stream":  "rtt_us_p50",
	"storm":   "op_ms_p50",
	"dist":    "op_ms_p50",
}

// term is one line of a budget row: a layer's cost times how often the
// headline operation pays it.
type term struct {
	Layer string  `json:"layer"`
	Count float64 `json:"count"`
	Cost  float64 `json:"cost"`
	Unit  string  `json:"unit"`
	Ms    float64 `json:"ms"`
}

// budgetRow sets what the layer costs predict for the workload's headline
// operation against what was measured; the remainder is unattributed.
type budgetRow struct {
	Workload        string  `json:"workload"`
	Headline        string  `json:"headline"`
	Operation       string  `json:"operation"`
	Terms           []term  `json:"terms"`
	PredictedMs     float64 `json:"predicted_ms"`
	MeasuredMs      float64 `json:"measured_ms"`
	UnattributedPct float64 `json:"unattributed_pct"`
}

// traced is what the traced pass of one workload yields.
type traced struct {
	Result             // per-layer metrics, in the same shape as a run's
	Budget budgetRow   `json:"budget"`
	Layers []layerTime `json:"span_self_times"`
	rec    *recorder
}

// measureTraced makes the traced pass: the workload's lane for a fifth of
// the time untraced, the same again with spans recorded, telemetry
// counting here and in the daemons (-debug-addr), and then the layer
// probes in the remaining three fifths. The probes want a corpus, a
// program set and a daemon whatever the lane, so the traced set-up fills
// in the ones the workload leaves out.
func measureTraced(w workload, seed int64, o options) (*traced, error) {
	total := time.Duration(o.seconds * float64(time.Second))
	t := &traced{Result: Result{Workload: w.name, Seed: seed, Seconds: o.seconds}, rec: newRecorder()}

	e, err := setup(w, seed, o.src, o.work, false)
	if err != nil {
		return nil, err
	}
	plain := e.run(budget{d: total / 5, rounds: minRounds}, nil)
	e.close()

	if w.lines == 0 {
		w.lines, w.weight = 1000, wordcount.Light
	}
	if w.scripts == "" {
		w.scripts = "vm"
	}
	w.daemons = max(w.daemons, 1)
	if e, err = setup(w, seed, o.src, o.work, true); err != nil {
		return nil, err
	}
	defer e.close()
	telemetry.SetMetrics(true)
	spanned := e.run(budget{d: total / 5, rounds: minRounds}, t.rec)
	telemetry.SetMetrics(false)

	const probes = 40 // timed loops in runProbes, roughly
	p, err := runProbes(e, total*3/5/probes, t.rec)
	if err != nil {
		return nil, err
	}
	t.Metrics = p.out

	h := headline[w.lane]
	p.count("bench.trace_overhead_pct", 100*(spanned.metrics[h].Value/plain.metrics[h].Value-1))
	t.Budget = budgetFor(w, p, plain)
	p.count("bench.unattributed_pct", t.Budget.UnattributedPct)

	t.Attempted = plain.attempted + spanned.attempted
	t.Failed = plain.failed + spanned.failed
	t.Notes = append(plain.notes, spanned.notes...)
	t.Correct = t.Failed == 0
	t.Layers = t.rec.selfTimes()
	for _, m := range perLayer {
		if s, ok := t.Metrics[m.Name]; !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return nil, fmt.Errorf("traced pass of %s: per-layer metric %s is missing or not a number", w.name, m.Name)
		}
	}
	return t, nil
}

// budgetFor writes the workload's budget row from the layer costs in p and
// the untraced measurement of the headline.
func budgetFor(w workload, p *prober, plain laneResult) budgetRow {
	L := func(name string) float64 { return p.out[name].Value }
	row := budgetRow{Workload: w.name, Headline: headline[w.lane]}
	add := func(layer string, count, cost float64, unit string) {
		scale := map[string]float64{"ns": 1e-6, "us": 1e-3, "ms": 1}[unit]
		row.Terms = append(row.Terms, term{layer, count, cost, unit, count * cost * scale})
	}
	measured := plain.metrics[row.Headline].Value
	switch w.lane {
	case "fig6":
		row.Operation = "one JuniconPipeline job"
		add("wordcount.task_ms", 1, L("wordcount.task_ms"), "ms")
		add("core.resume_ns", p.resumesPerJob, L("core.resume_ns"), "ns")
		add("pipe.hop_ns", p.pipeValuesPerJob, L("pipe.hop_ns"), "ns")
		add("pipe.spawn_us", 1, L("pipe.spawn_us"), "us")
	case "scripts":
		row.Operation = "one load of the program set under WithVM"
		for _, l := range []string{"parser.parse_ms", "transform.normalize_ms", "analyze.facts_ms", "compile.compile_ms"} {
			add(l, 1, L(l), "ms")
		}
	case "stream":
		row.Operation = "one Next on a Buffer=1 stream"
		add("remote.inproc_rtt_us_p50", 1, L("remote.inproc_rtt_us_p50"), "us")
		measured /= 1e3 // µs → ms
	case "storm":
		// The layer costs are those of a stream alone on the wire, so the
		// remainder is what waiting behind the other slots' streams adds.
		row.Operation = fmt.Sprintf("one stream's life, open to stopped, with %d slots busy", stormSlots)
		meanLen := float64(w.lo+w.hi) / 2
		add("remote.open_first_value_us", 1, L("remote.open_first_value_us"), "us")
		add("remote.inproc_values_per_s", meanLen, 1e6/L("remote.inproc_values_per_s"), "us")
		add("remote.stop_us", 1, L("remote.stop_us"), "us")
	case "dist":
		// The workers run the embedded map-reduce the reference bar runs
		// in this process, on the same cores, so that bar is a term; what
		// is left over is the price of the process boundary.
		row.Operation = "one DistributedMapReduce job"
		shard := float64(w.lines) / float64(len(p.e.addrs))
		add("wordcount.JuniconMapReduce in process (base_ms_p50)", 1, plain.metrics["base_ms_p50"].Value, "ms")
		add("wire.marshal_list_ms", shard/10_000, L("wire.marshal_list_ms"), "ms")
		add("wire.unmarshal_list_ms", shard/10_000, L("wire.unmarshal_list_ms"), "ms")
		add("remote.open_first_value_us", 1, L("remote.open_first_value_us"), "us")
	}
	for _, t := range row.Terms {
		row.PredictedMs += t.Ms
	}
	row.MeasuredMs = measured
	row.UnattributedPct = 100 * (measured - row.PredictedMs) / measured
	return row
}
