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

// hPoolWait is the task wait-time histogram (submit → start of execution),
// across all pools in the process, fed through each pool's record.
var hPoolWait = telemetry.NewHistogram("pool.task_wait_ns")

// ErrShutdown is reported by Submit after Shutdown.
var ErrShutdown = errors.New("pool: shut down")

// Pool runs submitted tasks on a fixed set of worker goroutines.
type Pool struct {
	tasks *queue.Blocking[func()]
	wg    sync.WaitGroup
	size  int

	// rec is the pool's record, opened on the first submission made while
	// any observation is on. Produced counts tasks run (pool.tasks); the
	// depth probe reports the backlog.
	rec atomic.Pointer[inspect.Handle]

	mu   sync.Mutex
	down bool
}

// New returns a pool of n workers; n <= 0 selects GOMAXPROCS.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: queue.NewLinkedBlocking[func()](), size: n}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

// Size reports the number of worker goroutines.
func (p *Pool) Size() int { return p.size }

// record returns the pool's record, opening it on first use while any
// observation is on, so a pool created before shows up once it takes work.
func (p *Pool) record() *inspect.Handle {
	if h := p.rec.Load(); h != nil {
		return h
	}
	h := inspect.Open(0, inspect.KindPool, "pool")
	if h == nil {
		return nil
	}
	h.SetDepthProbe(func() (int, int) { return p.tasks.Len(), p.size })
	if !p.rec.CompareAndSwap(nil, h) {
		h.Close() // another submitter won the race
		return p.rec.Load()
	}
	return h
}

// enqueue puts a task on the work queue, wrapped to report its wait and its
// completion to the pool's record when there is one.
func (p *Pool) enqueue(task func()) error {
	if h := p.record(); h != nil {
		inner, queued := task, time.Now()
		task = func() {
			h.Observe(hPoolWait, time.Since(queued).Nanoseconds())
			inner()
			h.Produced(1)
		}
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
	p.rec.Load().Close()
}
