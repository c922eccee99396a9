package pipe

import (
	"testing"

	"junicon/internal/core"
	"junicon/internal/telemetry"
	"junicon/internal/value"
)

// TestTracedChainConcurrent exercises the records under real concurrency:
// a 3-stage Chain runs each stage in its own producer goroutine with metrics
// and the trace ring both live. Under -race this is the tier-1 guarantee
// that the observation path — ring writes, counter ticks, the wait brackets
// — is safe when many goroutines observe at once; and every stage's record
// must tell its own stream's whole story.
func TestTracedChainConcurrent(t *testing.T) {
	telemetry.ResetMetrics()
	telemetry.SetMetrics(true)
	telemetry.StartTrace(1 << 14)
	defer func() {
		telemetry.SetMetrics(false)
		telemetry.StopTrace()
	}()

	inc := func(in core.Gen) core.Gen {
		return core.Op1(func(v value.V) value.V { return value.Add(v, value.NewInt(1)) }, in)
	}
	const n = 500
	got := core.Drain(Chain(core.IntRange(1, n), 8, inc, inc, inc), 0)
	if len(got) != n {
		t.Fatalf("drained %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if mustInt(t, v) != int64(i+4) {
			t.Fatalf("value %d = %v, want %d", i, v, i+4)
		}
	}

	// Each stage's pipe put every value exactly once, on a stream of its own.
	produced := map[uint64]int64{}
	for _, ev := range telemetry.DrainTrace() {
		if ev.Kind == telemetry.KindPut || ev.Kind == telemetry.KindValue {
			produced[ev.Stream] += ev.Arg
		}
	}
	if len(produced) != 3 {
		t.Fatalf("values produced on %d streams, want 3", len(produced))
	}
	for stream, count := range produced {
		if count != n {
			t.Errorf("stream %x produced %d values, want %d", stream, count, n)
		}
	}
	snap := telemetry.Snapshot()
	if values := snap["pipe.values"].(int64); values != 3*n {
		t.Errorf("pipe.values = %d, want %d", values, 3*n)
	}
	if started := snap["pipe.producers_started"].(int64); started != 3 {
		t.Errorf("pipe.producers_started = %d, want 3", started)
	}
}

func mustInt(t *testing.T, v value.V) int64 {
	t.Helper()
	i, ok := value.ToInteger(value.Deref(v))
	if !ok {
		t.Fatalf("not an integer: %v", v)
	}
	n, _ := i.Int64()
	return n
}
