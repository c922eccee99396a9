// Package pipe implements generator proxies (§3B): a pipe |>e runs a
// co-expression in its own thread of execution, iterating it to failure and
// publishing each result through a blocking queue; the surrounding
// expression consumes the queue, so producer and consumer run in parallel —
// explicit task parallelism in the form of a pipeline.
//
//	|>e → new Iterator() { next() { new Thread { run() {
//	    c = |<>e; while (!fail) { out.put(@c); }}}.start() }}
//
// That loop is the producer, written once (produce). A runtime error ends
// it and is its incarnation's: Err reports it until the next start.
// The output queue is exposed (Out) "to permit further manipulation", and
// bounding its buffer throttles the threaded co-expression. A pipe limited
// to a single result is a future (see First).
//
// # Runs
//
// The run is the unit of the hop, on the consumer side only. The producer
// publishes each value with its own Put, so a waiting consumer gets a value
// the moment it exists. Next serves from a run it holds and, when the run
// is empty, refills it with one blocking TakeBatch: whatever the producer
// has queued by then, up to min(buffer, maxRun) values, crosses in one lock
// round trip. A consumer that keeps pace takes runs of one; one that lags
// takes long runs and stops contending with the producer for the queue
// lock — the engine switch is amortized over chunks without changing the
// lazy interface. A one-slot queue, the M-var, never holds more than one
// value, so over it every run is one value long and the hand-off is per
// value.
//
// The §3B throttle, with runs: never more than buffer values queued, plus
// one run in the consumer's hands (plus the one value the producer has
// computed and is blocked putting). Stop, Restart, Refresh and First
// discard the held run with the producer; Size and the record's counts
// (internal/inspect) advance per delivered value, not per run.
//
// Where |>e's thread runs is not part of the calculus: the producer may be
// a Transport, such as a stream another process serves (internal/remote),
// filling a queue per incarnation for this same consumer. Over the wire
// the throttle is credits, counted per delivered value and not per run,
// so the remote bound is the buffer alone: the held run is uncredited.
package pipe

import (
	"fmt"
	"sync"
	"sync/atomic"

	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/pool"
	"junicon/internal/queue"
	"junicon/internal/value"
)

// DefaultBuffer is the output-queue bound used when none is given.
const DefaultBuffer = 1024

// maxRun caps the run a consumer takes from the queue in one visit: long
// enough that the lock round trip vanishes from the per-value cost, short
// enough that the run buffer stays a few KiB per started pipe.
const maxRun = 256

// generation is one producer incarnation: its transport queue, its record
// (nil while every observation sink is off — see internal/inspect), the
// Stream a Transport fills it from (nil: a local producer or an ended
// stream) and the consumer's held run. Next loads it with a single atomic
// read once the producer is running; refill moves it on to the Stream's
// next incarnation.
type generation struct {
	out queue.Queue[value.V]
	h   *inspect.Handle // nil: unobserved
	in  Stream

	// mu serializes consumers, serving and refilling alike, so the run
	// buffer is reused without a publication protocol: between refills a
	// Next is one uncontended lock and a slice index. Served slots are
	// overwritten by later refills and cleared at exhaustion, not one by
	// one: at most a run of dead references outlives its delivery.
	mu   sync.Mutex
	run  []value.V // run[i:n]: taken from out, not yet delivered
	i, n int
}

// adopt makes out and its record h the generation's: the first
// incarnation's at start, and each one a Stream's End hands on. The record
// is armed with the queue's depth probe here, and nowhere else. Caller
// holds the pipe's lock, under which Out reads the queue.
func (g *generation) adopt(out queue.Queue[value.V], h *inspect.Handle) {
	g.out, g.h = out, h
	if h != nil {
		h.SetDepthProbe(func() (int, int) { return out.Len(), out.Cap() })
	}
}

// refill takes the next run from g's queue with one blocking TakeBatch —
// park at once, no polling: a consumer that spins before parking starves
// the producer it is waiting for when cores are scarce. A transport's
// stream hears of a wait first (Demand), and of the queue's end (End),
// which may name the incarnation to go on with. refill reports false once
// the queue is closed and drained and no incarnation follows. Caller holds
// g.mu.
func (p *Pipe) refill(g *generation) bool {
	for {
		// The consumer edge is looked up once per run, never per value; the
		// take bracket opened here is closed by the Consumed of the value the
		// run delivers, and the record by exhaustion.
		g.h.NoteConsume()
		g.h.BlockedTake()
		if g.in != nil && g.out.Len() == 0 {
			g.in.Demand()
		}
		n, err := g.out.TakeBatch(g.run)
		if err == nil {
			g.i, g.n = 0, n
			return true
		}
		clear(g.run)
		g.i, g.n = 0, 0
		g.h.Close()
		if g.in == nil {
			return false
		}
		if g.in = g.in.End(); g.in == nil {
			return false
		}
		p.mu.Lock()
		g.adopt(g.in.Queue())
		p.mu.Unlock()
	}
}

// Transport is a pipe's producer when it is not a goroutine of this
// process. Open, Refresh and Stop run under the pipe's lock.
type Transport interface {
	Open() (Stream, error) // a fresh evaluation: the first, or the first after Restart
	Refresh() core.Stepper // ^: a new proxy over the same producer
	Stop()                 // ends the current stream and any reopen of it
	Err() error            // what ended the stream or failed its open, if anything
}

// Stream is one incarnation of a Transport's producer.
type Stream interface {
	Queue() (queue.Queue[value.V], *inspect.Handle)
	Demand()     // runs before a refill blocks on the empty queue
	Delivered()  // runs once per value Next hands out
	End() Stream // the queue closed and drained: the incarnation that continues it, or nil
}

// Pipe is a generator proxy for a co-expression running in a separate
// goroutine. It implements value.Gen (so it composes with the kernel),
// core.Stepper (so @, ! and ^ apply) and value.V (so it is first-class).
type Pipe struct {
	mu      sync.Mutex
	src     core.Stepper
	tr      Transport // non-nil: the producer is tr's, and src is unused
	mkQueue func() queue.Queue[value.V]
	batch   int        // > 0 caps the consumer's run below min(buffer, maxRun)
	pool    *pool.Pool // non-nil: producer runs on a pool worker, not its own goroutine
	own     core.Gen   // FromGen's generator, in a FirstClass src that only this pipe reaches
	err     error      // what ended the current local producer, if anything

	cur     atomic.Pointer[generation] // nil until the producer starts
	results atomic.Int64
}

var (
	_ value.Gen    = (*Pipe)(nil)
	_ core.Stepper = (*Pipe)(nil)
	_ value.Sized  = (*Pipe)(nil)
)

// New returns a pipe over the co-expression (or any first-class iterator)
// src, transporting results through a bounded blocking queue of the given
// buffer size (<= 0 selects DefaultBuffer; 1 yields M-var/future behaviour,
// maximally throttling the producer). The producer thread starts on the
// first Next, as in the paper's unraveling of |>e.
func New(src core.Stepper, buffer int) *Pipe {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	return &Pipe{
		src:     src,
		mkQueue: func() queue.Queue[value.V] { return queue.NewArrayBlocking[value.V](buffer) },
	}
}

// NewBatchedWithQueue returns a pipe transporting results through queues
// produced by mk, with the consumer's run capped at batch (batch <= 0: no
// cap) — used by the differential stress harness to take runs from
// schedule-perturbed queues.
func NewBatchedWithQueue(src core.Stepper, mk func() queue.Queue[value.V], batch int) *Pipe {
	return &Pipe{src: src, mkQueue: mk, batch: batch}
}

// Over returns a pipe whose producer is tr's, the consumer's run capped at
// batch as for FromGenBatched.
func Over(tr Transport, batch int) *Pipe { return &Pipe{tr: tr, batch: batch} }

// FromGen lifts a plain generator into a pipe: |>e over <>e.
func FromGen(g core.Gen, buffer int) *Pipe {
	p := New(core.NewFirstClass(g), buffer)
	p.own = g
	return p
}

// FromGenBatched is FromGen with the consumer's run capped at batch values
// (see the package comment): batch 1 takes every value from the queue
// singly, batch <= 0 is exactly FromGen. The producer may run ahead of the
// consumer by buffer plus one run; Stop/Restart/Err/First semantics are
// unchanged.
func FromGenBatched(g core.Gen, buffer, batch int) *Pipe {
	p := FromGen(g, buffer)
	p.batch = batch
	return p
}

// OnPool arranges for the producer to run on a worker of pl instead of a
// goroutine of its own — the paper's §5D thread-pool management applied to
// generator proxies: many short-lived pipes reuse a fixed set of workers.
// Semantics at the Stepper surface (Stop/Restart/StartEager/First, error
// propagation, the trace contract) are unchanged; Refresh propagates the
// pool to the refreshed proxy.
//
// Two caveats follow from running on shared workers. A producer blocked on
// a full output queue holds its worker, so consumers must drain pooled
// pipes in an order that keeps at least one running producer consumable —
// FIFO spawn order, as the windowed map-reduce drives it, is always safe.
// And if the pool is shut down before the producer starts, the pipe fails
// (empty sequence) with Err() = pool.ErrShutdown.
//
// OnPool must be called before the producer starts; it returns p.
func (p *Pipe) OnPool(pl *pool.Pool) *Pipe {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur.Load() != nil {
		panic("pipe: OnPool after producer start")
	}
	p.pool = pl
	return p
}

// start opens the transport's stream, or spawns the producer goroutine,
// and adopts the first generation. The consumer's run buffer is sized by
// that queue: its bound, or maxRun where it reports none (unbounded), cut
// to maxRun and to the pipe's cap. A fresh start owes nothing to an
// earlier one's error. Caller holds p.mu.
func (p *Pipe) start() {
	p.err = nil
	g := new(generation)
	if p.tr == nil {
		// Observation is decided once per producer start.
		g.adopt(p.mkQueue(), inspect.Open(0, inspect.KindPipe, "pipe"))
	} else if s, err := p.tr.Open(); err == nil {
		g.in = s
		g.adopt(s.Queue())
	} else {
		p.stopCurrentLocked()
		return
	}
	n := g.out.Cap()
	if n <= 0 || n > maxRun {
		n = maxRun
	}
	if p.batch > 0 {
		n = min(n, p.batch)
	}
	g.run = make([]value.V, n)
	p.cur.Store(g)
	if p.tr == nil {
		p.produce(g)
	}
}

// produce runs g's producer, c = |<>e; while (!fail) out.put(@c), on a
// goroutine of its own or a worker of the pipe's pool. With every sink off
// an own source's generator is iterated directly: the FirstClass around it
// is not reachable outside this pipe, so skipping its Step changes
// nothing. Caller holds p.mu.
func (p *Pipe) produce(g *generation) {
	out, h := g.out, g.h
	gen := p.own
	if gen == nil || h != nil {
		gen = core.Bang(p.src)
	}
	run := func() {
		defer h.Bind()()
		// An Icon runtime error raised inside the piped expression must
		// not crash the host: record it while g is the pipe's generation —
		// a producer a Stop or Restart has moved past speaks for no
		// incarnation — and fail the consumer side. Values yielded before
		// the error are already in the queue, and a closed queue drains
		// before it fails: the consumer gets exactly that prefix.
		defer func() {
			if r := recover(); r != nil {
				var err error = fmt.Errorf("pipe: producer panic: %v", r)
				if re, ok := r.(*value.RuntimeError); ok {
					err = re
				}
				p.mu.Lock()
				if p.cur.Load() == g {
					p.err = err
				}
				p.mu.Unlock()
				out.Close()
			}
		}()
		for {
			v, ok := gen.Next()
			if !ok {
				break
			}
			if v == nil {
				v = value.NullV
			}
			// The put bracket opens before the (possibly blocking) publish
			// and closes after it: only staleness makes the blocked-put
			// mark meaningful to the watchdog.
			if h != nil {
				h.BlockedPut()
			}
			if out.Put(value.Deref(v)) != nil {
				return // consumer stopped the pipe
			}
			if h != nil {
				h.Produced(1)
			}
		}
		h.Draining()
		out.Close()
	}
	if p.pool != nil {
		if err := p.pool.Go(run); err != nil {
			// The pool is shut down; the producer can never run. Record the
			// cause and close the transport so the consumer fails promptly.
			p.err = err
			out.Close()
		}
		return
	}
	go run()
}

// Err reports the runtime error that terminated the current incarnation's
// producer, if any — a transport's, what ended its stream. A pipe whose
// expression raised an error fails from the consumer's point of view; Err
// distinguishes that from ordinary exhaustion.
func (p *Pipe) Err() error {
	if p.tr != nil {
		return p.tr.Err()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// StartEager spawns the producer immediately instead of on first Next —
// used by map-reduce, where all task pipes must run concurrently from the
// moment they are created (Figure 4's every-loop spawns them all before any
// result is consumed).
func (p *Pipe) StartEager() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur.Load() == nil {
		p.start()
	}
}

// Next delivers the next produced value, failing when the producer has
// iterated its co-expression to failure. The @ operation on a pipe "is
// out.take()" (§3B) — here one take per run, served a value at a time.
func (p *Pipe) Next() (value.V, bool) {
	g := p.cur.Load()
	for g == nil { // unstarted, or restarted since the load
		p.StartEager()
		g = p.cur.Load()
	}
	if !g.mu.TryLock() {
		// Another consumer holds the run, perhaps parked in its take: the
		// edge is recorded before queueing behind it, so the watchdog still
		// sees whom this goroutine waits for.
		g.h.NoteConsume()
		g.mu.Lock()
	}
	if g.i == g.n && !p.refill(g) {
		g.mu.Unlock()
		return nil, false
	}
	v := g.run[g.i]
	g.i++
	h, in := g.h, g.in
	g.mu.Unlock()
	if h != nil {
		h.Consumed(1)
	}
	if in != nil {
		in.Delivered()
	}
	p.results.Add(1)
	return v, true
}

// Restart stops the current producer and arranges for a fresh one over a
// refreshed co-expression on the next Next.
func (p *Pipe) Restart() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur.Load() != nil {
		p.stopCurrentLocked()
		p.cur.Store(nil) // next Next spawns the fresh producer
		if p.tr == nil {
			p.src = p.src.Refresh()
		}
	}
	p.results.Store(0)
}

// Stop terminates the producer without restarting; further Nexts fail until
// Restart. Safe to call at any time: closing the queue releases a producer
// blocked in Put, whose in-hand value is discarded with the queued ones and
// the consumer's held run.
func (p *Pipe) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopCurrentLocked() // a never-started pipe now fails, not spawns
}

// stopCurrentLocked closes the current generation's transport, releasing
// its producer, and leaves the ended generation in its place: a closed
// queue drains before it fails, and neither the stopped producer's
// buffered values nor the run the consumer held may stay reachable through
// Next. Caller holds p.mu.
func (p *Pipe) stopCurrentLocked() {
	if p.tr != nil {
		p.tr.Stop()
	} else if g := p.cur.Load(); g != nil {
		g.out.Close()
		g.h.Close()
	}
	p.cur.Store(ended)
}

// ended is every stopped pipe's generation, shared: an empty, closed queue
// with no producer, on which Next fails at once.
var ended = func() *generation {
	g := &generation{out: queue.NewArrayBlocking[value.V](1), run: make([]value.V, 1)}
	g.out.Close()
	return g
}()

// Out exposes the transport queue — the paper makes the BlockingQueue "a
// public field to permit further manipulation". It is the current
// generation's, nil until the producer starts. Values the consumer has
// taken as a run but not yet been handed by Next are no longer in it.
func (p *Pipe) Out() queue.Queue[value.V] {
	p.mu.Lock()
	defer p.mu.Unlock()
	if g := p.cur.Load(); g != nil {
		return g.out
	}
	return nil
}

// Step implements the activation operator @ on the pipe.
func (p *Pipe) Step(value.V) (value.V, bool) { return p.Next() }

// Refresh implements ^ on the pipe: a new proxy over a refreshed
// co-expression.
func (p *Pipe) Refresh() core.Stepper {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur.Load() != nil {
		p.stopCurrentLocked()
	}
	if p.tr != nil {
		return p.tr.Refresh()
	}
	// own carries over: FirstClass.Refresh returns its receiver, as
	// private to the new proxy as it was to this one.
	return &Pipe{src: p.src.Refresh(), mkQueue: p.mkQueue, batch: p.batch, pool: p.pool, own: p.own}
}

// Size reports the number of results delivered so far (*P).
func (p *Pipe) Size() int {
	return int(p.results.Load())
}

// Type returns "co-expression": a pipe is a proxy for one.
func (p *Pipe) Type() string { return "co-expression" }

// Image identifies the value as a pipe.
func (p *Pipe) Image() string { return "pipe" }

// First runs the pipe as a future: it takes the first result and stops the
// producer — also when the pipe was started eagerly (StartEager), so a
// producer blocked on a full queue is always released
// after the single result is in hand. ok is false when the piped expression
// failed without a result.
func (p *Pipe) First() (value.V, bool) {
	v, ok := p.Next()
	p.Stop()
	return v, ok
}

// Chain builds a parallel pipeline: stage i+1 consumes the promoted output
// of the pipe around stage i. Each stage is a function from an input
// generator to an output generator; the returned generator produces the
// final stage's results while every stage runs in its own goroutine.
func Chain(src core.Gen, buffer int, stages ...func(core.Gen) core.Gen) core.Gen {
	for _, stage := range stages {
		src = stage(core.Bang(FromGen(src, buffer)))
	}
	return src
}
