package main

import (
	"math"
	"time"

	"junicon/internal/remote"
	"junicon/internal/wordcount"
)

// sameTotal is the reference check of every word-count job: parallel
// variants sum in another order, so equality is to 1e-9 relative.
func sameTotal(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

type bar struct {
	metric string
	span   string
	run    func(lines []string, w wordcount.Weight, cfg wordcount.EmbeddedConfig) float64
}

// fig6Bars are Figure 6's four embedded variants and, last, its
// normaliser.
var fig6Bars = []bar{
	{"junicon_seq_ms", "wordcount.JuniconSequential", wordcount.JuniconSequential},
	{"junicon_pipeline_ms", "wordcount.JuniconPipeline", wordcount.JuniconPipeline},
	{"junicon_dataparallel_ms", "wordcount.JuniconDataParallel", wordcount.JuniconDataParallel},
	{"junicon_mapreduce_ms", "wordcount.JuniconMapReduce", wordcount.JuniconMapReduce},
	{"base_ms_p50", "wordcount.NativeMapReduce",
		func(lines []string, w wordcount.Weight, _ wordcount.EmbeddedConfig) float64 {
			return wordcount.NativeMapReduce(lines, w, wordcount.NativeConfig{})
		}},
}

// timeJob runs one word-count job under a span and checks its total.
func (e *env) timeJob(r *laneResult, tr *recorder, root, span string, job func() (float64, error)) (ms float64, ok bool) {
	run := tr.newRun()
	top := tr.begin(root, -1, run)
	call := tr.begin(span, top, run)
	t0 := time.Now()
	total, err := job()
	dt := time.Since(t0)
	tr.end(call)
	tr.end(top)
	r.attempted++
	switch {
	case err != nil:
		r.fail("%s: %v", span, err)
	case !sameTotal(total, e.ref):
		r.fail("%s: total %v, want %v", span, total, e.ref)
	default:
		return dt.Seconds() * 1e3, true
	}
	return 0, false
}

// runFig6 times one job of every bar per round. The bar that goes first
// rotates with the round, so drift in the machine reaches all of them
// alike. An operation is one job. The headline is the four Junicon bars
// together, the geometric mean of their medians; the reference is the
// native map-reduce, so overhead_x is the issue's embed_overhead_x,
// Figure 6 in one number.
func (e *env) runFig6(b budget, tr *recorder) laneResult {
	r := laneResult{metrics: map[string]Stat{}}
	// cmd/fig6's partition: eight chunks whatever the corpus size.
	cfg := wordcount.EmbeddedConfig{ChunkSize: max(len(e.lines)/8, 1)}
	samples := make([][]float64, len(fig6Bars))
	b.loop(func(i int) {
		for k := range fig6Bars {
			j := (i + k) % len(fig6Bars)
			bar := fig6Bars[j]
			ms, ok := e.timeJob(&r, tr, "fig6.job", bar.span, func() (float64, error) {
				return bar.run(e.lines, e.w.weight, cfg), nil
			})
			if ok {
				samples[j] = append(samples[j], ms)
			}
		}
	})
	var med, q1, q3, embedded []float64
	for j, bar := range fig6Bars {
		s := summarize(samples[j], "ms")
		r.metrics[bar.metric] = s
		if j < len(fig6Bars)-1 {
			med, q1, q3 = append(med, s.Value), append(q1, s.Q1), append(q3, s.Q3)
			embedded = append(embedded, samples[j]...)
		}
	}
	op := Stat{Value: geomean(med...), Unit: "ms", Q1: geomean(q1...), Q3: geomean(q3...), N: len(embedded)}
	r.endToEnd(op, r.metrics["base_ms_p50"], 1e3/mean(embedded))
	return r
}

// runDist alternates the distributed word count over both daemons, the
// headline, with the embedded map-reduce of the same corpus in this
// process, the reference. An operation is one job.
func (e *env) runDist(b budget, tr *recorder) laneResult {
	r := laneResult{metrics: map[string]Stat{}}
	dist := wordcount.DistributedConfig{
		Workers:   e.addrs,
		ChunkSize: distChunk,
		Remote:    remote.Config{Buffer: 64},
	}
	local := wordcount.EmbeddedConfig{ChunkSize: distChunk}
	var op, base []float64
	b.loop(func(int) {
		if ms, ok := e.timeJob(&r, tr, "dist.job", "wordcount.DistributedMapReduce", func() (float64, error) {
			return wordcount.DistributedMapReduce(e.lines, wordcount.Light, dist)
		}); ok {
			op = append(op, ms)
		}
		if ms, ok := e.timeJob(&r, tr, "dist.reference", "wordcount.JuniconMapReduce", func() (float64, error) {
			return wordcount.JuniconMapReduce(e.lines, wordcount.Light, local), nil
		}); ok {
			base = append(base, ms)
		}
	})
	r.endToEnd(summarize(op, "ms"), summarize(base, "ms"), 1e3/mean(op))
	return r
}
