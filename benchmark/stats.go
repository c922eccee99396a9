package main

import (
	"math"
	"sort"
)

// Stat is one reported number: the value a run stands for (a median
// unless the metric's definition says otherwise) with the quartiles and
// size of the sample it was taken from.
type Stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quantile returns the p-quantile of sorted xs by the rule Python's
// statistics.quantiles uses by default (exclusive: position p·(n+1),
// linear interpolation, clamped to the sample), so spreads computed here
// and by the driver agree.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// summarize reports xs as its median with quartiles; xs is sorted in
// place.
func summarize(xs []float64, unit string) Stat {
	sort.Float64s(xs)
	return Stat{
		Value: quantile(xs, 0.5),
		Unit:  unit,
		Q1:    quantile(xs, 0.25),
		Q3:    quantile(xs, 0.75),
		N:     len(xs),
	}
}

// percentile reports the p-th percentile of xs (nearest rank) in place of
// the median; the quartiles still describe the whole sample.
func percentile(xs []float64, p float64, unit string) Stat {
	s := summarize(xs, unit)
	if len(xs) > 0 {
		rank := int(math.Ceil(p*float64(len(xs)))) - 1
		s.Value = xs[min(max(rank, 0), len(xs)-1)]
	}
	return s
}

// spread is the interquartile range of xs as a share of its median — the
// run-to-run steadiness figure the bounds are judged against.
func spread(xs []float64) float64 {
	s := summarize(append([]float64(nil), xs...), "")
	if s.Value == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func geomean(xs ...float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
