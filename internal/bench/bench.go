// Package bench is the measurement harness of §VII — the analogue of the
// Java Microbenchmarking Harness used in the paper: warmup iterations
// followed by measured iterations (the paper uses 20 + 20), with means and
// 99% confidence intervals, and normalization of execution times against a
// designated baseline for Figure 6's presentation.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Config controls a benchmark run.
type Config struct {
	// Warmup is the number of warmup iterations (default 20, as in §VII).
	Warmup int
	// Iterations is the number of measured iterations (default 20).
	Iterations int
	// MinIterTime batches the workload so each iteration runs at least
	// this long (default 10ms), for clock-resolution hygiene.
	MinIterTime time.Duration
}

func (c Config) withDefaults() Config {
	if c.Warmup <= 0 {
		c.Warmup = 20
	}
	if c.Iterations <= 0 {
		c.Iterations = 20
	}
	if c.MinIterTime <= 0 {
		c.MinIterTime = 10 * time.Millisecond
	}
	return c
}

// Result is one benchmark's measurement.
type Result struct {
	Name string
	// Mean is seconds per operation.
	Mean float64
	// Std is the sample standard deviation of per-iteration means.
	Std float64
	// CI99 is the half-width of the 99% confidence interval of the mean.
	CI99 float64
	// Iterations measured; Batch operations per iteration.
	Iterations int
	Batch      int
}

// Run benchmarks f under cfg.
func Run(name string, cfg Config, f func()) Result {
	cfg = cfg.withDefaults()
	batch := calibrate(f, cfg.MinIterTime)
	for i := 0; i < cfg.Warmup; i++ {
		runBatch(f, batch)
	}
	samples := make([]float64, cfg.Iterations)
	for i := range samples {
		samples[i] = runBatch(f, batch) / float64(batch)
	}
	mean, std := meanStd(samples)
	// z(0.995) = 2.576: the paper reports 99% confidence whiskers.
	ci := 2.576 * std / math.Sqrt(float64(len(samples)))
	return Result{
		Name:       name,
		Mean:       mean,
		Std:        std,
		CI99:       ci,
		Iterations: cfg.Iterations,
		Batch:      batch,
	}
}

// calibrate finds a batch size whose runtime is at least minTime.
func calibrate(f func(), minTime time.Duration) int {
	batch := 1
	for {
		d := time.Duration(runBatch(f, batch) * float64(time.Second))
		if d >= minTime || batch >= 1<<20 {
			return batch
		}
		grow := int(float64(minTime)/math.Max(float64(d), 1) + 1)
		if grow < 2 {
			grow = 2
		}
		if grow > 100 {
			grow = 100
		}
		batch *= grow
	}
}

func runBatch(f func(), n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start).Seconds()
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)-1))
	return mean, std
}

// Normalized is a result scaled against a baseline mean, the form Figure 6
// plots ("execution time is normalized with respect to that of the Java
// parallel stream benchmark").
type Normalized struct {
	Result
	// Ratio is Mean / baseline Mean.
	Ratio float64
	// RatioCI is the normalized 99% half-width.
	RatioCI float64
}

// Normalize scales results against the result named baseline.
func Normalize(results []Result, baseline string) ([]Normalized, error) {
	var base *Result
	for i := range results {
		if results[i].Name == baseline {
			base = &results[i]
			break
		}
	}
	if base == nil {
		return nil, fmt.Errorf("bench: baseline %q not among results", baseline)
	}
	out := make([]Normalized, len(results))
	for i, r := range results {
		out[i] = Normalized{
			Result:  r,
			Ratio:   r.Mean / base.Mean,
			RatioCI: r.CI99 / base.Mean,
		}
	}
	return out, nil
}

// Table renders results as an aligned text table.
func Table(w io.Writer, title string, results []Normalized) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-28s %14s %12s %12s %8s\n", "benchmark", "mean", "ci99", "normalized", "batch")
	for _, r := range results {
		fmt.Fprintf(w, "%-28s %14s %12s %9.3fx ±%.3f %6d\n",
			r.Name, fmtDuration(r.Mean), fmtDuration(r.CI99), r.Ratio, r.RatioCI, r.Batch)
	}
}

func fmtDuration(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}

// Bars renders a log-scale text histogram of normalized ratios — the shape
// of Figure 6's log-axis bar chart.
func Bars(w io.Writer, title string, results []Normalized) {
	fmt.Fprintf(w, "%s  (log scale, x = normalized execution time)\n", title)
	maxRatio := 1.0
	for _, r := range results {
		if r.Ratio > maxRatio {
			maxRatio = r.Ratio
		}
	}
	const width = 50
	logMax := math.Log10(maxRatio * 1.1)
	if logMax <= 0 {
		logMax = 1
	}
	for _, r := range results {
		// Map [0.1, maxRatio] logarithmically onto the bar width.
		l := math.Log10(math.Max(r.Ratio, 0.101)) - math.Log10(0.1)
		span := logMax - math.Log10(0.1)
		n := int(l / span * width)
		if n < 1 {
			n = 1
		}
		fmt.Fprintf(w, "%-28s |%s %.2fx\n", r.Name, strings.Repeat("#", n), r.Ratio)
	}
}
