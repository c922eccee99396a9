package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestRingAddDrain(t *testing.T) {
	r := NewRing(64)
	for i := int64(0); i < 10; i++ {
		r.Add(Event{TS: i, Kind: KindValue, Name: "g", Arg: i})
	}
	evs := r.Drain()
	if len(evs) != 10 {
		t.Fatalf("drained %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.TS != int64(i) {
			t.Fatalf("event %d out of order: ts %d", i, ev.TS)
		}
	}
	if len(r.Drain()) != 0 {
		t.Fatal("second drain not empty")
	}
}

func TestRingWrapKeepsRecent(t *testing.T) {
	r := NewRing(16)
	for i := int64(0); i < 100; i++ {
		r.Add(Event{TS: i})
	}
	evs := r.Drain()
	if len(evs) != 16 {
		t.Fatalf("drained %d events, want 16", len(evs))
	}
	// The survivors are the most recent writes.
	for _, ev := range evs {
		if ev.TS < 84 {
			t.Fatalf("stale event ts %d survived wrap", ev.TS)
		}
	}
	if r.Written() != 100 {
		t.Fatalf("written = %d, want 100", r.Written())
	}
}

func TestRingConcurrentWriters(t *testing.T) {
	r := NewRing(1 << 12)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(Event{TS: time.Now().UnixNano(), Stream: uint64(w)})
			}
		}(w)
	}
	wg.Wait()
	if got := len(r.Drain()); got != 800 {
		t.Fatalf("drained %d events, want 800", got)
	}
}

func TestGlobalTracer(t *testing.T) {
	if TraceOn() {
		t.Fatal("tracing unexpectedly on")
	}
	Emit(1, KindValue, "noop", 0) // must not panic while off
	StartTrace(128)
	defer StopTrace()
	if !TraceOn() {
		t.Fatal("StartTrace not observed")
	}
	Emit(7, KindValue, "g", 42)
	start := time.Now().Add(-time.Millisecond)
	EmitSpan(7, KindPut, "q", 3, start)
	evs := DrainTrace()
	if len(evs) != 2 {
		t.Fatalf("drained %d events, want 2", len(evs))
	}
	// The span started 1ms in the past, so it sorts first.
	if evs[0].Dur <= 0 {
		t.Fatalf("span duration %d, want > 0", evs[0].Dur)
	}
	if evs[1].Stream != 7 || evs[1].Kind != KindValue || evs[1].Arg != 42 {
		t.Fatalf("unexpected instant event %+v", evs[1])
	}
	if !TraceOn() {
		t.Fatal("DrainTrace disabled tracing")
	}
	StopTrace()
	if TraceOn() {
		t.Fatal("StopTrace left tracing on")
	}
}
