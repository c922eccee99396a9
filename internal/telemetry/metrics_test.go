package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	c := NewCounter("test.counter")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// A gauge is a view of its owner's state: read at Snapshot time, and
	// left alone by ResetMetrics.
	var live atomic.Int64
	NewGauge("test.gauge", live.Load)
	live.Store(7)
	ResetMetrics()
	if got := Snapshot()["test.gauge"]; got != int64(7) {
		t.Fatalf("gauge = %v, want 7", got)
	}
	// register-or-get converges on the same instance.
	if NewCounter("test.counter") != c {
		t.Fatal("NewCounter did not return the registered instance")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	NewCounter("test.mismatch")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering a gauge under a counter name")
		}
	}()
	NewGauge("test.mismatch", func() int64 { return 0 })
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("test.hist")
	for _, v := range []int64{0, 1, 1, 3, 100, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Sum != 105 {
		t.Fatalf("sum = %d, want 105", s.Sum)
	}
	if s.Max != 100 {
		t.Fatalf("max = %d, want 100", s.Max)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.N
	}
	if total != 6 {
		t.Fatalf("bucket total = %d, want 6", total)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("test.hist.concurrent")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	c := NewCounter("test.snapshot.counter")
	c.Add(3)
	snap := Snapshot()
	if snap["test.snapshot.counter"] != int64(3) {
		t.Fatalf("snapshot counter = %v, want 3", snap["test.snapshot.counter"])
	}
	ResetMetrics()
	if c.Load() != 0 {
		t.Fatal("ResetMetrics did not zero the counter")
	}
}

func TestEnableFlags(t *testing.T) {
	if On() {
		t.Fatal("metrics unexpectedly on by default")
	}
	SetMetrics(true)
	defer SetMetrics(false)
	if !On() || !Active() {
		t.Fatal("SetMetrics(true) not observed")
	}
}

func TestNextStreamUniqueNonZero(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NextStream()
		if id == 0 {
			t.Fatal("stream id 0 allocated")
		}
		if seen[id] {
			t.Fatalf("duplicate stream id %x", id)
		}
		seen[id] = true
	}
}
