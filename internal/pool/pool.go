// Package pool provides a fixed-size worker pool with future-valued task
// submission — the substrate playing the role of Java's thread-pool
// management (§5D: "thread creation and allocation leverage Java's
// facilities for thread pool management"). The data-parallel execution
// paths of the streams and mapreduce packages run on it.
package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/inspect"
	"junicon/internal/queue"
	"junicon/internal/telemetry"
)

// Pool telemetry: queue depth and busy-worker gauges plus a task wait-time
// histogram (submit → start of execution). Metrics aggregate across all
// pools in the process; observation is decided per task at submit time, so
// an unobserved pool pays one atomic load per submission.
var (
	cPoolTasks = telemetry.NewCounter("pool.tasks")
	gPoolDepth = telemetry.NewGauge("pool.queue_depth")
	gPoolBusy  = telemetry.NewGauge("pool.workers_busy")
	hPoolWait  = telemetry.NewHistogram("pool.task_wait_ns")
)

// ErrShutdown is reported by Submit after Shutdown.
var ErrShutdown = errors.New("pool: shut down")

// Pool runs submitted tasks on a fixed set of worker goroutines.
type Pool struct {
	tasks *queue.Blocking[func()]
	wg    sync.WaitGroup
	size  int

	// ih is the pool's live-introspection handle, registered lazily on the
	// first submission while inspection is enabled. Produced counts
	// completed tasks; the depth probe reports the task backlog.
	ih atomic.Pointer[inspect.Handle]

	mu   sync.Mutex
	down bool
}

// New returns a pool of n workers; n <= 0 selects GOMAXPROCS.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: queue.NewLinkedBlocking[func()](0), size: n}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

// Size reports the number of worker goroutines.
func (p *Pool) Size() int { return p.size }

// handle returns the pool's introspection handle, registering it on first
// use while inspection is enabled. Lazy registration means a pool created
// before Enable still shows up once it takes work.
func (p *Pool) handle() *inspect.Handle {
	if h := p.ih.Load(); h != nil {
		return h
	}
	if !inspect.On() {
		return nil
	}
	h := inspect.Register(0, inspect.KindPool, fmt.Sprintf("pool(workers=%d)", p.size))
	h.SetDepthProbe(func() (int, int) { return p.tasks.Len(), p.size })
	if !p.ih.CompareAndSwap(nil, h) {
		inspect.Unregister(h) // another submitter won the race
		return p.ih.Load()
	}
	return h
}

// enqueue puts a task on the work queue, wrapping it with metric updates
// when telemetry is on at submission time.
func (p *Pool) enqueue(task func()) error {
	if h := p.handle(); h != nil {
		inner := task
		task = func() {
			inner()
			h.Produced(1)
		}
	}
	if telemetry.On() {
		cPoolTasks.Inc()
		gPoolDepth.Add(1)
		inner := task
		start := time.Now()
		task = func() {
			gPoolDepth.Add(-1)
			hPoolWait.Observe(time.Since(start).Nanoseconds())
			gPoolBusy.Add(1)
			defer gPoolBusy.Add(-1)
			inner()
		}
		if err := p.tasks.Put(task); err != nil {
			gPoolDepth.Add(-1) // never enqueued
			return replaceClosed(err)
		}
		return nil
	}
	return replaceClosed(p.tasks.Put(task))
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		task, err := p.tasks.Take()
		if err != nil {
			return
		}
		task()
	}
}

// Submit schedules f and returns a future for its result. A panic inside f
// fails the future instead of crashing the worker.
func Submit[T any](p *Pool, f func() (T, error)) *queue.Future[T] {
	fut := queue.NewFuture[T]()
	task := func() {
		defer func() {
			if r := recover(); r != nil {
				fut.Fail(fmt.Errorf("pool: task panic: %v", r))
			}
		}()
		v, err := f()
		if err != nil {
			fut.Fail(err)
			return
		}
		fut.Set(v)
	}
	p.mu.Lock()
	down := p.down
	p.mu.Unlock()
	if down {
		fut.Fail(ErrShutdown)
		return fut
	}
	if err := p.enqueue(task); err != nil {
		fut.Fail(ErrShutdown)
	}
	return fut
}

// Go schedules f with no result.
func (p *Pool) Go(f func()) error {
	p.mu.Lock()
	down := p.down
	p.mu.Unlock()
	if down {
		return ErrShutdown
	}
	return p.enqueue(f)
}

func replaceClosed(err error) error {
	if err == queue.ErrClosed {
		return ErrShutdown
	}
	return err
}

// Shutdown stops accepting tasks, runs the backlog to completion, and waits
// for the workers to exit.
func (p *Pool) Shutdown() {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.down = true
	p.mu.Unlock()
	// Drain-then-fail close semantics let queued tasks finish.
	p.tasks.Close()
	p.wg.Wait()
	p.ih.Load().Close()
}
