package queue

// Batch-operation coverage for the telemetry wrapper: PutBatch/TakeBatch
// must record element counters, batch-size histograms and blocked time —
// the amortization evidence Ablation G quotes — and must do so race-free
// when producer and consumer overlap (this file is part of the -race CI
// lane like every queue test).

import (
	"testing"
	"time"

	"junicon/internal/telemetry"
)

// withMetrics turns the metrics registry on for one test and hands back
// a fresh window.
func withMetrics(t *testing.T) {
	t.Helper()
	telemetry.SetMetrics(true)
	telemetry.ResetMetrics()
	t.Cleanup(func() {
		telemetry.SetMetrics(false)
		telemetry.ResetMetrics()
	})
}

func histogram(t *testing.T, snap map[string]any, name string) telemetry.HistogramSnapshot {
	t.Helper()
	h, ok := snap[name].(telemetry.HistogramSnapshot)
	if !ok {
		t.Fatalf("metric %q missing or not a histogram: %T", name, snap[name])
	}
	return h
}

func counter(t *testing.T, snap map[string]any, name string) int64 {
	t.Helper()
	c, ok := snap[name].(int64)
	if !ok {
		t.Fatalf("metric %q missing or not a counter: %T", name, snap[name])
	}
	return c
}

func TestInstrumentBatchSizes(t *testing.T) {
	withMetrics(t)

	const total = 96
	q := Instrument[int](NewArrayBlocking[int](total), 7, "test")

	// Room for everything up front: the batch sizes observed are exactly
	// the batch sizes offered, with no blocking in either direction.
	batches := [][]int{make([]int, 32), make([]int, 48), make([]int, 16)}
	for _, b := range batches {
		n, err := q.PutBatch(b)
		if err != nil || n != len(b) {
			t.Fatalf("PutBatch = %d, %v", n, err)
		}
	}
	got := 0
	takes := 0
	dst := make([]int, 64)
	for got < total {
		n, err := q.TakeBatch(dst)
		if err != nil {
			t.Fatalf("TakeBatch: %v", err)
		}
		got += n
		takes++
	}

	snap := telemetry.Snapshot()
	if n := counter(t, snap, "queue.puts"); n != total {
		t.Errorf("queue.puts = %d, want %d (element-granular accounting)", n, total)
	}
	if n := counter(t, snap, "queue.takes"); n != total {
		t.Errorf("queue.takes = %d, want %d", n, total)
	}
	put := histogram(t, snap, "queue.put_batch_size")
	if put.Count != int64(len(batches)) || put.Sum != total {
		t.Errorf("put_batch_size count/sum = %d/%d, want %d/%d",
			put.Count, put.Sum, len(batches), total)
	}
	if put.Max != 48 {
		t.Errorf("put_batch_size max = %d, want 48", put.Max)
	}
	take := histogram(t, snap, "queue.take_batch_size")
	if take.Count != int64(takes) || take.Sum != total {
		t.Errorf("take_batch_size count/sum = %d/%d, want %d/%d",
			take.Count, take.Sum, takes, total)
	}
}

func TestInstrumentBatchBlockedTime(t *testing.T) {
	withMetrics(t)

	const hold = 20 * time.Millisecond

	// Put side: a batch larger than the buffer must park the producer in
	// PutBatch until the consumer drains; the wrapper bills that wait to
	// queue.put_blocked_ns.
	q := Instrument[int](NewArrayBlocking[int](2), 7, "test")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if n, err := q.PutBatch(make([]int, 8)); err != nil || n != 8 {
			t.Errorf("PutBatch = %d, %v", n, err)
		}
	}()
	// Start the hold only once the buffer is full: the producer has then
	// taken its start stamp, however late its goroutine was scheduled.
	for deadline := time.Now().Add(5 * time.Second); q.Len() < 2; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("producer never filled the buffer")
		}
	}
	time.Sleep(hold)
	dst := make([]int, 8)
	for got := 0; got < 8; {
		n, err := q.TakeBatch(dst)
		if err != nil {
			t.Fatalf("TakeBatch: %v", err)
		}
		got += n
	}
	<-done
	if ns := counter(t, telemetry.Snapshot(), "queue.put_blocked_ns"); ns < hold.Nanoseconds() {
		t.Errorf("put_blocked_ns = %d, want >= %d (producer parked %v)", ns, hold.Nanoseconds(), hold)
	}

	// Take side: TakeBatch on an empty queue parks the consumer until the
	// producer shows up; the wait lands in queue.take_blocked_ns.
	telemetry.ResetMetrics()
	go func() {
		time.Sleep(hold)
		if n, err := q.PutBatch([]int{1, 2, 3}); err != nil || n != 3 {
			t.Errorf("PutBatch = %d, %v", n, err)
		}
	}()
	if n, err := q.TakeBatch(dst); err != nil || n == 0 {
		t.Fatalf("TakeBatch = %d, %v", n, err)
	}
	if ns := counter(t, telemetry.Snapshot(), "queue.take_blocked_ns"); ns < hold.Nanoseconds() {
		t.Errorf("take_blocked_ns = %d, want >= %d (consumer parked %v)", ns, hold.Nanoseconds(), hold)
	}
}
