package junicon

import (
	"junicon/internal/coexpr"
	"junicon/internal/core"
	"junicon/internal/mapreduce"
	"junicon/internal/pipe"
	"junicon/internal/pool"
	"junicon/internal/queue"
	"junicon/internal/value"
)

// The calculus of concurrent generators (Figure 1):
//
//	<> e   first-class generator            FirstClass
//	|<> e  co-expression (shadowed env)     NewCoExpr
//	|> e   generator proxy in a thread      NewPipe / PipeOf
//	@ c    step one iteration               Step
//	! c    promote back to a generator      Bang
//	^ c    restart with a fresh env copy    Refresh

// Stepper is a first-class iterator value: first-class generators,
// co-expressions and pipes all implement it.
type Stepper = core.Stepper

// CoExpr is a co-expression: a first-class iterator over a shadowed copy
// of its creation environment.
type CoExpr = coexpr.CoExpr

// Pipe is a generator proxy running its co-expression in a separate
// goroutine, communicating through a bounded blocking queue.
type Pipe = pipe.Pipe

// FirstClass lifts an expression into a first-class iterator value (<>e).
func FirstClass(g Gen) Stepper { return core.NewFirstClass(g) }

// NewCoExpr creates a co-expression (|<>e): locals' current values are
// copied now, and build receives fresh reified variables initialized from
// that snapshot on first activation and after each Refresh — mutations
// never cross the boundary (§3A).
func NewCoExpr(locals []Value, build func(env []*Var) Gen) *CoExpr {
	return coexpr.New(locals, build)
}

// SimpleCoExpr creates a co-expression with no referenced locals.
func SimpleCoExpr(build func() Gen) *CoExpr { return coexpr.Simple(build) }

// NewPipe creates a generator proxy (|>e) over a first-class iterator,
// transporting results through a bounded blocking queue of the given size
// (<= 0 selects the default of 1024; 1 yields future/M-var behaviour and
// maximally throttles the producer, §3B). The producer puts each value as
// it exists; the consumer takes whatever has queued up, at most
// min(buffer, 256) values, as one run per queue visit and Next serves from
// it — so the producer is never more than buffer values queued plus one
// run in the consumer's hands ahead.
func NewPipe(src Stepper, buffer int) *Pipe { return pipe.New(src, buffer) }

// PipeOf spawns a pipe over a plain generator: |>e over <>e.
func PipeOf(g Gen, buffer int) *Pipe { return pipe.FromGen(g, buffer) }

// Step activates a first-class iterator value (@c), optionally
// transmitting a value into it.
func Step(c Value, transmit Value) (Value, bool) { return core.Step(c, transmit) }

// Bang promotes a first-class iterator value back into a generator (!c).
func Bang(s Stepper) Gen { return core.Bang(s) }

// Refresh restarts a first-class iterator over a fresh copy of its
// environment (^c), returning the refreshed iterator.
func Refresh(c Value) Value { return core.Refresh(c) }

// Pipeline chains stages into a parallel pipeline: each stage transforms a
// generator, and a pipe is spun between consecutive stages so every stage
// runs in its own goroutine (§3B's fixed-code decomposition, Figure 2).
func Pipeline(src Gen, buffer int, stages ...func(Gen) Gen) Gen {
	return pipe.Chain(src, buffer, stages...)
}

// Future evaluates g in a separate goroutine and returns a handle to its
// first result — "a singleton piped iterator that produces one result
// forms a future" (§3B).
func Future(g Gen) *Pipe { return pipe.FromGen(g, 1) }

// DataParallel is the map-reduce abstraction of Figure 4, built entirely
// from concurrent generators: the source is chunked, each chunk is mapped
// and reduced in its own pipe, and per-chunk results stream back in order.
type DataParallel struct {
	cfg mapreduce.Config
}

// NewDataParallel mirrors `new DataParallel(chunkSize)` from Figure 3.
func NewDataParallel(chunkSize int) DataParallel {
	return DataParallel{cfg: mapreduce.New(chunkSize)}
}

// WithBuffer bounds each task pipe's output queue.
func (d DataParallel) WithBuffer(n int) DataParallel {
	d.cfg.Buffer = n
	return d
}

// WithWorkers runs the per-chunk tasks on a dedicated pool of n workers
// created per drive cycle, instead of the shared process-wide pool.
func (d DataParallel) WithWorkers(n int) DataParallel {
	d.cfg.Workers = n
	return d
}

// WithWindow bounds the number of in-flight chunk tasks (default 2× the
// pool's worker count): chunks are pulled from the source and spawned as
// earlier tasks are drained, so memory stays O(window·chunkSize) even for
// unbounded sources.
func (d DataParallel) WithWindow(n int) DataParallel {
	d.cfg.Window = n
	return d
}

// OnPool runs the per-chunk tasks on an existing pool. The pool is never
// shut down by the scheduler.
func (d DataParallel) OnPool(p *Pool) DataParallel {
	d.cfg.Pool = p
	return d
}

// MapReduce maps callable f over the results of generator function s,
// reducing each chunk with callable r from init in its own pipe; the
// returned generator produces per-chunk reduced results in chunk order.
func (d DataParallel) MapReduce(f, s, r Value, init Value) Gen {
	return d.cfg.MapReduce(f, s, r, init)
}

// MapFlat maps f over s in concurrent per-chunk pipes but splits out the
// reduction: mapped elements stream back flattened, in order (§VII's
// data-parallel variant).
func (d DataParallel) MapFlat(f, s Value) Gen { return d.cfg.MapFlat(f, s) }

// Chunk partitions the results of stepping e into lists of at most size
// elements — Figure 4's chunk generator.
func Chunk(e Stepper, size int) Gen { return mapreduce.Chunk(e, size) }

// Pool is a fixed-size worker pool. Pipes placed on a pool with
// Pipe.OnPool reuse its worker goroutines instead of spawning one per
// producer, and DataParallel schedules its chunk tasks on one (§5D's
// thread-pool management).
type Pool = pool.Pool

// NewPool returns a pool of n workers; n <= 0 selects GOMAXPROCS.
func NewPool(n int) *Pool { return pool.New(n) }

// BlockingQueue is a bounded FIFO blocking queue of values — the transport
// underneath pipes, exposed for direct coordination (§3B exposes the
// queue "to permit further manipulation").
type BlockingQueue = queue.Blocking[value.V]

// NewBlockingQueue returns a bounded blocking queue of values.
func NewBlockingQueue(capacity int) *BlockingQueue {
	return queue.NewArrayBlocking[value.V](capacity)
}
