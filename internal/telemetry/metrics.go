package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay meaningful).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous value read at Snapshot time from the state its
// owner keeps (a live count): a view, never a copy, so it cannot go stale
// while metrics are off, and ResetMetrics leaves it alone.
type Gauge func() int64

// Histogram accumulates non-negative observations into log₂ buckets:
// bucket i counts values whose bit length is i, i.e. v in [2^(i-1), 2^i).
// Log buckets keep the whole structure a fixed array of atomics — no
// locks on the observe path — while spanning nanoseconds to minutes.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [65]atomic.Int64
}

// Observe records one value; negative values are clamped to 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Reset zeroes the histogram (measurement-window delimiting).
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Bucket is one non-empty histogram bucket: N observations with value
// <= Le (and greater than the previous bucket's Le).
type Bucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a histogram. P50/P99/P999
// are rank-based quantile estimates (Quantile) — the latency percentiles
// a load report quotes.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50,omitempty"`
	P99     float64  `json:"p99,omitempty"`
	P999    float64  `json:"p999,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			le := int64(-1)
			if i < 63 {
				le = (int64(1) << i) - 1
			}
			s.Buckets = append(s.Buckets, Bucket{Le: le, N: n})
		}
	}
	s.P50 = s.Quantile(0.50)
	s.P99 = s.Quantile(0.99)
	s.P999 = s.Quantile(0.999)
	return s
}

// Quantile extracts the q-quantile (0 <= q <= 1) from the snapshot's
// buckets: the target rank is located in its bucket and interpolated
// linearly within the bucket's value range [lo, hi]. Log₂ buckets bound
// the relative error at 2× worst case; the top occupied bucket is clamped
// to the recorded Max, so Quantile(1) is exact and high quantiles never
// overshoot the largest observation.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for _, b := range s.Buckets {
		n := float64(b.N)
		if cum+n < target {
			cum += n
			continue
		}
		// The rank lands in this bucket: values in (lo-1, hi], i.e. the
		// bit-length class [2^(i-1), 2^i). Le == -1 marks the overflow
		// buckets whose upper bound only Max knows.
		var lo, hi float64
		switch {
		case b.Le == 0:
			return 0 // the zero bucket holds exactly the value 0
		case b.Le < 0:
			lo, hi = float64(int64(1)<<62), float64(s.Max)
		default:
			lo, hi = float64(b.Le/2+1), float64(b.Le)
		}
		if float64(s.Max) < hi {
			hi = float64(s.Max) // the true largest observation caps the top
		}
		if hi < lo {
			return hi
		}
		frac := (target - cum) / n
		return lo + frac*(hi-lo)
	}
	return float64(s.Max)
}

// ---- registry ----

// The registry is the process-wide name → metric map. Construction is
// register-or-get so package-level `var c = telemetry.NewCounter(...)`
// declarations across packages converge on one instance per name; the
// hot path never touches the registry, only the returned metric.
var registry = struct {
	mu sync.Mutex
	m  map[string]any
}{m: make(map[string]any)}

func registerOrGet[T any](name string, mk func() *T) *T {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if v, ok := registry.m[name]; ok {
		if t, ok := v.(*T); ok {
			return t
		}
		panic("telemetry: metric " + name + " registered with a different type")
	}
	t := mk()
	registry.m[name] = t
	return t
}

// NewCounter returns the counter registered under name, creating it on
// first use. Panics if name is registered as a different metric type.
func NewCounter(name string) *Counter {
	return registerOrGet(name, func() *Counter { return &Counter{} })
}

// NewGauge registers load as the gauge under name.
func NewGauge(name string, load func() int64) *Gauge {
	return registerOrGet(name, func() *Gauge { g := Gauge(load); return &g })
}

// NewHistogram returns the histogram registered under name.
func NewHistogram(name string) *Histogram {
	return registerOrGet(name, func() *Histogram { return &Histogram{} })
}

// Snapshot returns a point-in-time copy of every registered metric:
// counters and gauges as int64, histograms as HistogramSnapshot. The
// result marshals cleanly to JSON with deterministically ordered keys.
func Snapshot() map[string]any {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]any, len(registry.m))
	for name, m := range registry.m {
		switch v := m.(type) {
		case *Counter:
			out[name] = v.Load()
		case *Gauge:
			out[name] = (*v)()
		case *Histogram:
			out[name] = v.Snapshot()
		}
	}
	return out
}

// ResetMetrics zeroes every registered counter and histogram. Intended for
// tests and for delimiting measurement windows from the debug endpoint.
func ResetMetrics() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, m := range registry.m {
		switch v := m.(type) {
		case *Counter:
			v.v.Store(0)
		case *Histogram:
			v.Reset()
		}
	}
}
