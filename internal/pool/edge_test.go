package pool

import (
	"sync"
	"sync/atomic"
	"testing"

	"junicon/internal/telemetry"
)

// TestSubmitRacingShutdown races many submitters against Shutdown: every
// future must resolve — either with its task's value (accepted before the
// close) or with ErrShutdown — and the pool must quiesce.
func TestSubmitRacingShutdown(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := New(4)
		const submitters = 8
		var wg sync.WaitGroup
		var ran, rejected atomic.Int64
		wg.Add(submitters)
		for i := 0; i < submitters; i++ {
			go func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					fut := Submit(p, func() (int, error) { return j, nil })
					if _, err := fut.Get(); err != nil {
						if err != ErrShutdown {
							t.Errorf("unexpected error: %v", err)
						}
						rejected.Add(1)
						return
					}
					ran.Add(1)
				}
			}()
		}
		p.Shutdown()
		wg.Wait()
		if ran.Load()+rejected.Load() == 0 {
			t.Fatal("no futures resolved")
		}
	}
}

// TestBacklogFuturesResolveAfterShutdown queues a backlog behind a slow
// task on a single worker, shuts down, and checks every already-accepted
// future still delivers its value (drain-then-fail close semantics).
func TestBacklogFuturesResolveAfterShutdown(t *testing.T) {
	p := New(1)
	gate := make(chan struct{})
	first := Submit(p, func() (int, error) { <-gate; return 0, nil })
	var futs []interface{ Get() (int, error) }
	for i := 1; i <= 16; i++ {
		i := i
		futs = append(futs, Submit(p, func() (int, error) { return i, nil }))
	}
	done := make(chan struct{})
	go func() { p.Shutdown(); close(done) }()
	close(gate)
	<-done
	if _, err := first.Get(); err != nil {
		t.Fatalf("gated task: %v", err)
	}
	for i, f := range futs {
		v, err := f.Get()
		if err != nil || v != i+1 {
			t.Fatalf("backlog future %d: v=%d err=%v", i, v, err)
		}
	}
	if _, err := Submit(p, func() (int, error) { return 0, nil }).Get(); err != ErrShutdown {
		t.Fatalf("post-shutdown submit: err=%v, want ErrShutdown", err)
	}
}

// TestManySmallTasksStress floods the pool with tiny tasks from several
// goroutines (run under -race in CI): all tasks run exactly once.
func TestManySmallTasksStress(t *testing.T) {
	p := New(8)
	defer p.Shutdown()
	const producers, perProducer = 8, 500
	var ran atomic.Int64
	var wg sync.WaitGroup
	wg.Add(producers)
	for i := 0; i < producers; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				fut := Submit(p, func() (int, error) {
					ran.Add(1)
					return 0, nil
				})
				if j%7 == 0 {
					fut.Get() // mix sync waits into the flood
				}
			}
		}()
	}
	wg.Wait()
	p.Shutdown()
	if got := ran.Load(); got != producers*perProducer {
		t.Fatalf("ran %d tasks, want %d", got, producers*perProducer)
	}
}

// TestPoolTelemetry runs gated tasks with metrics on and checks the pool's
// record feeds its instruments: one task run and one wait-time observation
// per task.
func TestPoolTelemetry(t *testing.T) {
	telemetry.SetMetrics(true)
	defer telemetry.SetMetrics(false)
	tasks := func() int64 { return telemetry.Snapshot()["pool.tasks"].(int64) }
	before := tasks()
	waitBefore := hPoolWait.Snapshot().Count

	p := New(2)
	gate := make(chan struct{})
	for i := 0; i < 8; i++ {
		p.Go(func() { <-gate })
	}
	close(gate)
	p.Shutdown()

	if got := tasks() - before; got != 8 {
		t.Fatalf("pool.tasks advanced by %d, want 8", got)
	}
	if got := hPoolWait.Snapshot().Count - waitBefore; got != 8 {
		t.Fatalf("pool.task_wait_ns observations advanced by %d, want 8", got)
	}
}
