// Package mapreduce builds the higher-order map-reduce abstraction of
// Figure 4 from nothing but the calculus of concurrent generators: chunking
// a source co-expression, spawning a pipe per chunk, and promoting the task
// results back into a generator.
//
// The Junicon original (Figure 4):
//
//	def chunk(e) {                      # Partition e into chunks
//	  chunk = [];
//	  while put(chunk, @e) do {
//	    if (*chunk >= chunkSize) then { suspend chunk; chunk = []; } };
//	  if (*chunk > 0) then { return chunk; };
//	}
//	def mapReduce(f, s, r, i) {         # Map f over s and reduce with r
//	  var c, t, tasks = [];
//	  every (c = chunk(<>s)) do {
//	    t = |> { var x = i; every (x = r(x, f(!c))); x };
//	    ((List) tasks)::add(t);
//	  };
//	  suspend ! (! tasks);
//	}
//
// # Scheduling
//
// The figure's literal drive — materialize every chunk, spawn a goroutine
// pipe per chunk, then drain the task list — needs O(source) memory and
// O(chunks) goroutines before the first result appears. This package keeps
// the figure's per-chunk task pipes but drives them through a windowed
// streaming schedule (§5D's "thread pool management"): chunks are pulled
// from the source lazily, at most Window task pipes are in flight at a
// time, each producer runs on a reused worker of a pool.Pool, and results
// are delivered by draining tasks in spawn (chunk) order. First results
// stream while the source is still being read; memory is O(window·chunk);
// goroutines are O(workers).
//
// In-order draining is also what makes the shared pool deadlock-free: the
// eldest undrained task is always either running or queued behind tasks
// that can complete, so a producer blocked on a full output queue is
// always eventually consumed.
//
// It is also what can serialize the pool: only the head of the line is
// being drained, so a younger task runs until its output queue is full and
// then parks, holding its worker, until every elder task has been drained.
// The workers stay busy while the head drains only if the queues behind it
// can absorb what they produce meanwhile — the lookahead rule:
// (window − 1) × task bound ≥ one chunk's output, else workers park behind
// the head of the line and the drive runs one worker at a time. A MapReduce
// task yields one value and never parks. For MapFlat, with Config.Buffer
// unset, the task bound is max(pipe.DefaultBuffer, 8 × ChunkSize), capped at
// 64 Ki: a task's queue holds its whole chunk's results up to a fan-out of
// 8 results per element, and the rule holds up to 8 × (window − 1).
package mapreduce

import (
	"sync"

	"junicon/internal/coexpr"
	"junicon/internal/core"
	"junicon/internal/pipe"
	"junicon/internal/pool"
	"junicon/internal/value"
)

// sharedPool is the process-wide default worker pool for chunk tasks,
// created on first use and never shut down: data-parallel drives reuse its
// goroutines instead of spawning per chunk or per cycle.
var (
	sharedOnce sync.Once
	shared     *pool.Pool
)

func sharedPool() *pool.Pool {
	sharedOnce.Do(func() { shared = pool.New(0) })
	return shared
}

// Chunk partitions the results of stepping co-expression e into lists of at
// most size elements — the chunk generator function of Figure 4.
func Chunk(e core.Stepper, size int) core.Gen {
	if size < 1 {
		size = 1
	}
	return &chunkGen{e: e, size: size}
}

// chunkGen is the struct form of Figure 4's chunk(e): no coroutine, one
// backing slice allocated per chunk.
type chunkGen struct {
	e    core.Stepper
	size int
	buf  []value.V
	done bool
}

func (g *chunkGen) Next() (value.V, bool) {
	if g.done {
		g.done = false // the partial tail was delivered; now report failure
		return nil, false
	}
	if g.buf == nil {
		g.buf = make([]value.V, 0, g.size)
	}
	for {
		v, ok := g.e.Step(value.NullV) // put(chunk, @e)
		if !ok {
			break
		}
		g.buf = append(g.buf, value.Deref(v))
		if len(g.buf) >= g.size {
			out := value.NewListOf(g.buf)
			g.buf = make([]value.V, 0, g.size)
			return out, true
		}
	}
	out := g.buf
	g.buf = nil
	if len(out) > 0 {
		g.done = true
		return value.NewListOf(out), true
	}
	// Exhausted on a chunk boundary: fail now, auto-restarted next call.
	return nil, false
}

func (g *chunkGen) Restart() {
	g.buf = nil
	g.done = false
}

// ChunkGen is Chunk over a plain generator: chunk(<>s).
func ChunkGen(src core.Gen, size int) core.Gen {
	return Chunk(core.NewFirstClass(src), size)
}

// chunkElems promotes a chunk for kernel-internal iteration: elements by
// value, with no reified variable per element (the consumer dereferences
// immediately and never assigns through the reference).
func chunkElems(v value.V) core.Gen {
	if l, ok := value.Deref(v).(*value.List); ok {
		return core.Elements(l)
	}
	return core.PromoteVal(v)
}

// SpawnMap spawns a data-parallel mapping of callable f over the elements
// of chunk, returning the generator of mapped results — the spawnMap method
// whose translation is Figure 5:
//
//	def spawnMap (f, chunk) { suspend ! (|> f(!chunk)); }
//
// The chunk is captured in the pipe's shadowed co-expression environment,
// so concurrent tasks cannot interfere.
func SpawnMap(f value.V, chunk value.V, buffer int) core.Gen {
	return core.Bang(spawnMapPipe(f, chunk, buffer, nil))
}

func spawnMapPipe(f value.V, chunk value.V, buffer int, pl *pool.Pool) *pipe.Pipe {
	c := coexpr.New([]value.V{f, chunk}, func(env []*value.Var) core.Gen {
		// x_0 in !chunk_s & f_s(x_0): map f over the shadowed chunk.
		x0 := value.NewCell(value.NullV)
		return core.Product(
			core.In(x0, chunkElems(env[1].Get())),
			core.ApplyVal(env[0].Get(), x0.Get),
		)
	})
	p := pipe.New(c, buffer)
	if pl != nil {
		p.OnPool(pl)
	}
	p.StartEager()
	return p
}

// Config carries the knobs of the DataParallel class from Figure 3/4.
type Config struct {
	// ChunkSize is the partition size (the paper uses 1000).
	ChunkSize int
	// Buffer bounds each MapFlat task pipe's output queue; <= 0 sizes it
	// from ChunkSize so the in-order window can look one chunk ahead (see
	// the package comment). A MapReduce task yields once and has one slot.
	Buffer int
	// Workers sets the worker-pool size for chunk tasks. 0 uses the shared
	// process-wide pool (sized GOMAXPROCS); > 0 gives each drive cycle its
	// own pool of that size, shut down when the cycle exhausts.
	Workers int
	// Window bounds the number of in-flight chunk tasks; <= 0 selects
	// 2 × the worker count.
	Window int
	// Pool, when non-nil, supplies the worker pool directly (overriding
	// Workers). The pool is never shut down by this package.
	Pool *pool.Pool
}

// New mirrors `new DataParallel(1000)`.
func New(chunkSize int) Config { return Config{ChunkSize: chunkSize} }

// schedule resolves the pool and window for one drive cycle. owned reports
// whether the cycle must shut the pool down at exhaustion.
func (cfg Config) schedule() (pl *pool.Pool, window int, owned bool) {
	switch {
	case cfg.Pool != nil:
		pl = cfg.Pool
	case cfg.Workers > 0:
		pl, owned = pool.New(cfg.Workers), true
	default:
		pl = sharedPool()
	}
	window = cfg.Window
	if window <= 0 {
		window = 2 * pl.Size()
	}
	if window < 1 {
		window = 1
	}
	return pl, window, owned
}

// MapReduce maps callable f over the results of source generator s,
// reducing each chunk with callable r from initial value init in its own
// pipe, and returns the generator of per-chunk reduced results in chunk
// order — Figure 4's mapReduce under the windowed schedule described in the
// package comment.
func (cfg Config) MapReduce(f, s, r value.V, init value.V) core.Gen {
	return cfg.newWindow(s, func(pl *pool.Pool, c value.V) *pipe.Pipe {
		return cfg.spawnReduce(pl, f, r, init, c)
	})
}

// spawnReduce spawns the pipe |> { var x = i; every (x = r(x, f(!c))); x }.
// The body yields exactly once, and "a pipe limited to a single result is a
// future" (§3B): its queue has one slot.
func (cfg Config) spawnReduce(pl *pool.Pool, f, r, init value.V, chunk value.V) *pipe.Pipe {
	c := coexpr.New([]value.V{f, r, init, chunk}, func(env []*value.Var) core.Gen {
		return &reduceGen{env: env}
	})
	p := pipe.New(c, 1)
	if pl != nil {
		p.OnPool(pl)
	}
	p.StartEager()
	return p
}

// reduceGen is the reduce task's body over its shadowed environment
// (f, r, i, c) in struct form: no coroutine, so a task stopped before its
// result is taken leaves nothing behind.
type reduceGen struct {
	env  []*value.Var
	done bool
}

func (g *reduceGen) Next() (value.V, bool) {
	if g.done {
		g.done = false // the result was delivered; now report failure
		return nil, false
	}
	g.done = true
	x := g.env[2].Get()
	elem := value.NewCell(value.NullV)
	mapped := core.Product(
		core.In(elem, chunkElems(g.env[3].Get())),
		core.ApplyVal(g.env[0].Get(), elem.Get),
	)
	rf := g.env[1].Get()
	var rargs [2]value.V
	core.Each(mapped, func(m value.V) bool {
		rargs[0], rargs[1] = x, m
		red, ok := core.First(core.InvokeVal(rf, rargs[:]...))
		if !ok {
			return false
		}
		x = red
		return true
	})
	return x, true
}

func (g *reduceGen) Restart() { g.done = false }

// MapFlat is the data-parallel variant of §VII: chunks are mapped in
// concurrent pipes but NOT reduced per chunk; the mapped elements stream
// back flattened and in order for a serial downstream reduction. It
// "differ[s] in performing summation over the sequence returned from
// flattening the chunks, thus splitting out the reduction".
func (cfg Config) MapFlat(f, s value.V) core.Gen {
	buffer := cfg.Buffer
	if buffer <= 0 {
		// The lookahead rule of the package comment, for fan-outs up to 8.
		buffer = min(max(pipe.DefaultBuffer, 8*cfg.ChunkSize), maxTaskBuffer)
	}
	return cfg.newWindow(s, func(pl *pool.Pool, c value.V) *pipe.Pipe {
		return spawnMapPipe(f, c, buffer, pl)
	})
}

// maxTaskBuffer caps the task queue MapFlat sizes from ChunkSize: the ring is
// allocated up front, per task.
const maxTaskBuffer = 64 << 10

// windowGen drives the windowed schedule; it is the generator MapReduce and
// MapFlat return, so a Restart from outside reaches the in-flight tasks.
// Like every kernel generator it auto-restarts, running a fresh cycle (a
// fresh invocation of the source, a fresh owned pool if the config asks for
// one) after reporting exhaustion.
type windowGen struct {
	cfg      Config
	spawn    func(pl *pool.Pool, chunk value.V) *pipe.Pipe
	src      value.V
	chunks   core.Gen   // chunks of this cycle's invocation of src; nil between cycles
	pl       *pool.Pool // nil between cycles when owned
	owned    bool
	window   int
	inflight []*pipe.Pipe // one task pipe per chunk, eldest first
	srcDone  bool
}

// newWindow builds the cycle generator: chunks of s, spawned through spawn,
// drained in order under the window bound.
func (cfg Config) newWindow(s value.V, spawn func(pl *pool.Pool, chunk value.V) *pipe.Pipe) core.Gen {
	return &windowGen{cfg: cfg, spawn: spawn, src: s}
}

// fill tops the window up: pull chunks from the source and spawn their
// tasks until the window is full or the source is exhausted.
func (g *windowGen) fill() {
	if g.pl == nil {
		g.pl, g.window, g.owned = g.cfg.schedule()
	}
	if g.chunks == nil {
		g.chunks = ChunkGen(core.InvokeVal(g.src), g.cfg.ChunkSize)
	}
	for !g.srcDone && len(g.inflight) < g.window {
		c, ok := g.chunks.Next()
		if !ok {
			g.srcDone = true
			return
		}
		g.inflight = append(g.inflight, g.spawn(g.pl, value.Deref(c)))
	}
}

func (g *windowGen) Next() (value.V, bool) {
	for {
		g.fill()
		if len(g.inflight) == 0 {
			g.endCycle()
			return nil, false
		}
		v, ok := g.inflight[0].Next()
		if ok {
			return v, true
		}
		// Eldest task exhausted (a producer error truncates its chunk's
		// results, exactly as draining the Figure 4 task list did): retire
		// it, move to the next task in chunk order.
		g.retire()
	}
}

// retire drops the eldest task from the window.
func (g *windowGen) retire() {
	n := copy(g.inflight, g.inflight[1:])
	g.inflight[n] = nil
	g.inflight = g.inflight[:n]
}

// endCycle reports exhaustion and rewinds for a possible next cycle. All of
// the owned pool's tasks have completed (every spawned pipe was drained to
// failure), so Shutdown does not block.
func (g *windowGen) endCycle() {
	if g.owned && g.pl != nil {
		g.pl.Shutdown()
	}
	g.pl = nil
	g.chunks = nil
	g.srcDone = false
}

// Restart aborts the cycle: in-flight producers are stopped (releasing
// their pool workers) before the cycle state is reset.
func (g *windowGen) Restart() {
	for _, p := range g.inflight {
		p.Stop()
	}
	g.inflight = nil
	g.chunks = nil
	g.srcDone = false
	// An owned pool is kept: its stopped producers drain on their own, and
	// the next cycle reuses the workers. It is shut down when a cycle runs
	// to exhaustion.
}
