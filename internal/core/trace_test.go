package core

import (
	"testing"

	"junicon/internal/telemetry"
	"junicon/internal/value"
)

func TestKernelCounters(t *testing.T) {
	telemetry.ResetMetrics()
	telemetry.SetMetrics(true)
	defer telemetry.SetMetrics(false)

	Drain(IntRange(1, 3), 0) // 3 yields + 1 fail
	NewFirstClass(IntRange(1, 3)).Refresh()

	snap := telemetry.Snapshot()
	if n := snap["kernel.yields"].(int64); n != 3 {
		t.Errorf("kernel.yields = %d, want 3", n)
	}
	if n := snap["kernel.fails"].(int64); n != 1 {
		t.Errorf("kernel.fails = %d, want 1", n)
	}
	if n := snap["kernel.resumes"].(int64); n != 4 {
		t.Errorf("kernel.resumes = %d, want 4", n)
	}
	if n := snap["kernel.restarts"].(int64); n != 1 {
		t.Errorf("kernel.restarts = %d, want 1", n)
	}
}

func mustInt(t *testing.T, v V) int64 {
	t.Helper()
	i, ok := value.ToInteger(value.Deref(v))
	if !ok {
		t.Fatalf("not an integer: %v", v)
	}
	n, _ := i.Int64()
	return n
}
