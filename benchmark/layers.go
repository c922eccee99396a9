package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"junicon/internal/ast"
	"junicon/internal/checkpoint"
	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/interp"
	"junicon/internal/lexer"
	"junicon/internal/mapreduce"
	"junicon/internal/parser"
	"junicon/internal/pipe"
	"junicon/internal/pool"
	"junicon/internal/queue"
	"junicon/internal/remote"
	"junicon/internal/streams"
	"junicon/internal/telemetry"
	"junicon/internal/transform"
	"junicon/internal/value"
	"junicon/internal/wire"
	"junicon/internal/wordcount"

	"junicon/internal/analyze"
)

// perLayer are the numbers of single layers, a layer being a package
// under internal/. All are measured from this package by timing calls
// into the layer's public functions or by reading counters the layer
// already keeps. Moves is the prediction, written before any optimisation
// is attempted, of the end-to-end metric@workload the layer should move.
var perLayer = []metric{
	{Name: "wordcount.task_ms", Unit: "ms", Better: "lower", Moves: "nothing (control): junicon_*_ms minus this is the plumbing share"},
	{Name: "core.resume_ns", Unit: "ns", Better: "lower", Moves: "junicon_seq_ms@fig6-light"},
	{Name: "core.allocs_per_value", Unit: "count", Better: "lower", Moves: "junicon_seq_ms@fig6-light"},
	{Name: "queue.put_take_ns", Unit: "ns", Better: "lower", Moves: "junicon_pipeline_ms@fig6-light"},
	{Name: "queue.batch_put_take_ns", Unit: "ns", Better: "lower", Moves: "junicon_pipeline_ms@fig6-light"},
	{Name: "queue.handoff_ns", Unit: "ns", Better: "lower", Moves: "rtt_us_p50@remote-stream"},
	{Name: "queue.put_blocked_share", Unit: "ratio", Better: "lower", Moves: "names the bottleneck side of junicon_pipeline_ms@fig6-light"},
	{Name: "queue.take_blocked_share", Unit: "ratio", Better: "lower", Moves: "names the bottleneck side of junicon_pipeline_ms@fig6-light"},
	{Name: "pipe.hop_ns", Unit: "ns", Better: "lower", Moves: "junicon_pipeline_ms@fig6-light; none @fig6-heavy"},
	{Name: "pipe.hop_batched_ns", Unit: "ns", Better: "lower", Moves: "junicon_pipeline_ms@fig6-light; none @fig6-heavy"},
	{Name: "pipe.spawn_us", Unit: "us", Better: "lower", Moves: "junicon_dataparallel_ms, junicon_mapreduce_ms@fig6-light; streams_per_s@remote-storm"},
	{Name: "pool.submit_us", Unit: "us", Better: "lower", Moves: "junicon_mapreduce_ms@fig6-light; dist_job_ms@dist-wordcount"},
	{Name: "pool.task_wait_us_p50", Unit: "us", Better: "lower", Moves: "junicon_mapreduce_ms@fig6-light; dist_job_ms@dist-wordcount"},
	{Name: "mapreduce.chunk_task_us", Unit: "us", Better: "lower", Moves: "junicon_mapreduce_ms@fig6-light; dist_job_ms@dist-wordcount"},
	{Name: "streams.mapreduce_ms", Unit: "ms", Better: "lower", Moves: "native_mapreduce_ms@fig6-light"},
	{Name: "lexer.tokens_per_s", Unit: "1/s", Better: "higher", Moves: "load_ms@scripts-*"},
	{Name: "parser.parse_ms", Unit: "ms", Better: "lower", Moves: "load_ms@scripts-*"},
	{Name: "parser.nodes", Unit: "count", Better: "lower", Exact: true, Moves: "load_ms@scripts-*"},
	{Name: "transform.normalize_ms", Unit: "ms", Better: "lower", Moves: "load_ms@scripts-*"},
	{Name: "transform.nodes_out", Unit: "count", Better: "lower", Exact: true, Moves: "load_ms@scripts-*"},
	{Name: "analyze.facts_ms", Unit: "ms", Better: "lower", Moves: "load_ms@scripts-*"},
	{Name: "compile.compile_ms", Unit: "ms", Better: "lower", Moves: "load_ms@scripts-*"},
	{Name: "compile.units", Unit: "count", Better: "lower", Exact: true, Moves: "load_ms@scripts-*"},
	{Name: "compile.code_ops", Unit: "count", Better: "lower", Exact: true, Moves: "load_ms, run_vm_ms@scripts-*"},
	{Name: "compile.fallback_units", Unit: "count", Better: "lower", Exact: true, Moves: "run_vm_ms@scripts-fallback (target 0 in ROADMAP item 3)"},
	{Name: "interp.run_ns_per_result", Unit: "ns", Better: "lower", Moves: "run_tree_ms@scripts-*"},
	{Name: "interp.allocs_per_result", Unit: "count", Better: "lower", Moves: "run_tree_ms@scripts-*"},
	{Name: "vm.run_ns_per_result", Unit: "ns", Better: "lower", Moves: "run_vm_ms@scripts-vm"},
	{Name: "vm.allocs_per_result", Unit: "count", Better: "lower", Moves: "run_vm_ms@scripts-vm"},
	{Name: "vm.ops_executed", Unit: "count", Better: "lower", Exact: true, Moves: "run_vm_ms@scripts-*"},
	{Name: "wire.marshal_ns_per_value", Unit: "ns", Better: "lower", Moves: "values_per_s@remote-stream"},
	{Name: "wire.unmarshal_ns_per_value", Unit: "ns", Better: "lower", Moves: "values_per_s@remote-stream"},
	{Name: "wire.batch_append_ns_per_value", Unit: "ns", Better: "lower", Moves: "values_per_s@remote-stream"},
	{Name: "wire.batch_unmarshal_ns_per_value", Unit: "ns", Better: "lower", Moves: "values_per_s@remote-stream"},
	{Name: "wire.bytes_per_value", Unit: "count", Better: "lower", Moves: "values_per_s@remote-stream"},
	{Name: "wire.marshal_list_ms", Unit: "ms", Better: "lower", Moves: "dist_job_ms@dist-wordcount"},
	{Name: "wire.unmarshal_list_ms", Unit: "ms", Better: "lower", Moves: "dist_job_ms@dist-wordcount"},
	{Name: "remote.inproc_values_per_s", Unit: "1/s", Better: "higher", Moves: "values_per_s@remote-stream; the gap to it is scheduler + process boundary"},
	{Name: "remote.inproc_rtt_us_p50", Unit: "us", Better: "lower", Moves: "rtt_us_p50@remote-stream; the gap to it is scheduler + process boundary"},
	{Name: "remote.dial_first_value_us", Unit: "us", Better: "lower", Moves: "streams_per_s, stream_ms_p99@remote-storm"},
	{Name: "remote.open_first_value_us", Unit: "us", Better: "lower", Moves: "streams_per_s, stream_ms_p99@remote-storm"},
	{Name: "remote.stop_us", Unit: "us", Better: "lower", Moves: "streams_per_s, stream_ms_p99@remote-storm"},
	{Name: "remote.frames_per_value", Unit: "ratio", Better: "lower", Moves: "values_per_s, rtt_us_p50@remote-stream; streams_per_s@remote-storm"},
	{Name: "remote.bytes_per_value", Unit: "count", Better: "lower", Moves: "values_per_s@remote-stream"},
	{Name: "remote.flushes_per_value", Unit: "ratio", Better: "lower", Moves: "values_per_s, rtt_us_p50@remote-stream"},
	{Name: "remote.flush_bytes_p50", Unit: "count", Better: "higher", Moves: "values_per_s@remote-stream"},
	{Name: "remote.credits_per_value", Unit: "ratio", Better: "lower", Moves: "values_per_s, rtt_us_p50@remote-stream"},
	{Name: "remote.credit_stall_share", Unit: "ratio", Better: "lower", Moves: "values_per_s@remote-stream"},
	{Name: "checkpoint.snapshot_us", Unit: "us", Better: "lower", Moves: "none today (no durable workload); guards ROADMAP item 2"},
	{Name: "checkpoint.restore_us", Unit: "us", Better: "lower", Moves: "none today (no durable workload); guards ROADMAP item 2"},
	{Name: "checkpoint.blob_bytes", Unit: "count", Better: "lower", Exact: true, Moves: "none today (no durable workload)"},
	{Name: "telemetry.on_hop_overhead_pct", Unit: "%", Better: "lower", Moves: "the off figure is pipe.hop_ns; ROADMAP item 5 holds it"},
	{Name: "inspect.on_hop_overhead_pct", Unit: "%", Better: "lower", Moves: "the off figure is pipe.hop_ns; ROADMAP item 5 holds it"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "the workload's headline metric, traced pass against untraced"},
	{Name: "bench.unattributed_pct", Unit: "%", Better: "lower", Moves: "share of the workload's headline the layer costs do not explain"},
}

// prober runs the layer probes of one traced pass. Every timed call is
// also a span, so the span file and the table come from the same clock
// readings.
type prober struct {
	e   *env
	d   time.Duration // measuring time per probe
	tr  *recorder
	run int
	out map[string]Stat
	// What one JuniconPipeline job counts, for the fig6 budget row to
	// multiply layer costs by.
	resumesPerJob, pipeValuesPerJob float64
}

func (p *prober) set(name string, s Stat) {
	m, _ := findMetric(perLayer, name)
	s.Unit = m.Unit
	p.out[name] = s
}

func (p *prober) count(name string, n float64) { p.set(name, Stat{Value: n, N: 1}) }

// timed calls f again and again for the probe's time (at least three
// times) under a span of the given name and reports the median duration
// of a call, divided by per, in unit (1e0 ns, 1e3 µs, 1e6 ms).
func (p *prober) timed(span string, per int, unit float64, f func()) Stat {
	var xs []float64
	budget{d: p.d, rounds: minRounds}.loop(func(int) {
		id := p.tr.begin(span, -1, p.run)
		t0 := time.Now()
		f()
		dt := time.Since(t0)
		p.tr.end(id)
		xs = append(xs, float64(dt.Nanoseconds())/float64(per)/unit)
	})
	return summarize(xs, "")
}

const (
	ns = 1e0
	us = 1e3
	ms = 1e6
)

// mallocs counts the heap allocations f makes.
func mallocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// counter reads one int64 metric out of a telemetry snapshot.
func counter(snap map[string]any, name string) float64 {
	n, _ := snap[name].(int64)
	return float64(n)
}

// runProbes measures every per-layer metric except the two the traced
// pass itself yields (bench.*).
func runProbes(e *env, d time.Duration, tr *recorder) (*prober, error) {
	p := &prober{e: e, d: d, tr: tr, run: tr.newRun(), out: map[string]Stat{}}
	p.kernel()
	p.queues()
	p.pipes()
	p.pools()
	if err := p.language(); err != nil {
		return nil, err
	}
	if err := p.evaluators(); err != nil {
		return nil, err
	}
	if err := p.wire(); err != nil {
		return nil, err
	}
	if err := p.remote(); err != nil {
		return nil, err
	}
	if err := p.checkpoint(); err != nil {
		return nil, err
	}
	return p, nil
}

// kernel: the task floor under every word-count bar, and the cost of one
// generator resumption in a product/in/range composition that yields as
// many results as the corpus has words.
func (p *prober) kernel() {
	lines, w := p.e.lines, p.e.w.weight
	p.set("wordcount.task_ms", p.timed("wordcount.SequentialTotal", 1, ms, func() {
		wordcount.SequentialTotal(lines, w)
	}))
	words := len(lines) * wordsOnLine
	compose := func() core.Gen {
		line, word := value.NewCell(value.NullV), value.NewCell(value.NullV)
		return core.Product(
			core.In(line, core.IntRange(1, int64(len(lines)))),
			core.In(word, core.IntRange(1, wordsOnLine)),
		)
	}
	p.set("core.resume_ns", p.timed("core.Count", words, ns, func() { core.Count(compose()) }))
	p.count("core.allocs_per_value", mallocs(func() { core.Count(compose()) })/float64(words))
}

// queues: one producer and one consumer goroutine over the bounded queue
// pipes use, per value and per 64-value batch, and over a single-slot
// M-var, where every Put waits for its Take.
func (p *prober) queues() {
	const n, batch = 1 << 16, 64
	pump := func(q queue.Queue[int], put func(), take func()) {
		done := make(chan struct{})
		go func() { put(); close(done) }()
		take()
		<-done
	}
	p.set("queue.put_take_ns", p.timed("queue.ArrayBlocking.PutTake", n, ns, func() {
		q := queue.NewArrayBlocking[int](64)
		pump(q, func() {
			for i := 0; i < n; i++ {
				q.Put(i)
			}
		}, func() {
			for i := 0; i < n; i++ {
				q.Take()
			}
		})
	}))
	p.set("queue.batch_put_take_ns", p.timed("queue.ArrayBlocking.PutTakeBatch", n, ns, func() {
		q := queue.NewArrayBlocking[int](64)
		pump(q, func() {
			vs := make([]int, batch)
			for i := 0; i < n; i += batch {
				q.PutBatch(vs)
			}
		}, func() {
			dst := make([]int, batch)
			for got := 0; got < n; {
				k, _ := q.TakeBatch(dst)
				got += k
			}
		})
	}))
	const handoffs = 1 << 13
	p.set("queue.handoff_ns", p.timed("queue.MVar.PutTake", handoffs, ns, func() {
		q := queue.NewMVar[int]()
		pump(q, func() {
			for i := 0; i < handoffs; i++ {
				q.Put(i)
			}
		}, func() {
			for i := 0; i < handoffs; i++ {
				q.Take()
			}
		})
	}))
}

// hop measures what one value pays to cross a pipe: a pipe over an
// integer range minus the bare drain of the same range.
func (p *prober) hop(span string, mk func(g core.Gen) *pipe.Pipe) Stat {
	const n = 1 << 15
	bare := p.timed("core.Count(range)", n, ns, func() { core.Count(core.IntRange(1, n)) })
	piped := p.timed(span, n, ns, func() {
		pp := mk(core.IntRange(1, n))
		core.Count(core.Bang(pp))
		pp.Stop()
	})
	piped.Value, piped.Q1, piped.Q3 = piped.Value-bare.Value, piped.Q1-bare.Value, piped.Q3-bare.Value
	return piped
}

func (p *prober) pipes() {
	plain := func(g core.Gen) *pipe.Pipe { return pipe.FromGen(g, 64) }
	off := p.hop("pipe.FromGen", plain)
	p.set("pipe.hop_ns", off)
	p.set("pipe.hop_batched_ns", p.hop("pipe.FromGenBatched", func(g core.Gen) *pipe.Pipe {
		return pipe.FromGenBatched(g, 64, 64)
	}))
	p.set("pipe.spawn_us", p.timed("pipe.spawn", 1, us, func() {
		pp := pipe.FromGen(core.Unit(value.NewInt(1)), 1)
		pp.Next()
		pp.Stop()
	}))

	// The same hop with each observability substrate on.
	telemetry.SetMetrics(true)
	on := p.hop("pipe.FromGen(telemetry)", plain)
	p.count("telemetry.on_hop_overhead_pct", 100*(on.Value/off.Value-1))

	// Which side of the word-count pipeline's queue waits: the blocked
	// time the instrumented queue counts, as a share of the job's time.
	// The same run counts the resumptions and pipe crossings of one job,
	// which the budget row multiplies the layer costs by.
	cfg := wordcount.EmbeddedConfig{}
	before := telemetry.Snapshot()
	jobs := 0
	t0 := time.Now()
	budget{d: p.d, rounds: 1}.loop(func(int) {
		id := p.tr.begin("wordcount.JuniconPipeline(telemetry)", -1, p.run)
		wordcount.JuniconPipeline(p.e.lines, p.e.w.weight, cfg)
		p.tr.end(id)
		jobs++
	})
	wall := float64(time.Since(t0).Nanoseconds())
	after := telemetry.Snapshot()
	delta := func(name string) float64 { return counter(after, name) - counter(before, name) }
	p.count("queue.put_blocked_share", delta("queue.put_blocked_ns")/wall)
	p.count("queue.take_blocked_share", delta("queue.take_blocked_ns")/wall)
	p.resumesPerJob = delta("kernel.resumes") / float64(jobs)
	p.pipeValuesPerJob = delta("pipe.values") / float64(jobs)
	telemetry.SetMetrics(false)

	inspect.Enable()
	on = p.hop("pipe.FromGen(inspect)", plain)
	inspect.Disable()
	inspect.Reset()
	p.count("inspect.on_hop_overhead_pct", 100*(on.Value/off.Value-1))
}

// pools: a no-op through the worker pool, one identity chunk task through
// the embedded map-reduce, and the native parallel stream with a no-op
// stage on the workload's corpus.
func (p *prober) pools() {
	pl := pool.New(0)
	defer pl.Shutdown()
	noop := func() (int, error) { return 0, nil }
	const tasks = 256
	p.set("pool.submit_us", p.timed("pool.Submit", tasks, us, func() {
		for i := 0; i < tasks; i++ {
			pool.Submit(pl, noop).Get()
		}
	}))
	telemetry.SetMetrics(true)
	telemetry.ResetMetrics()
	futs := make([]*queue.Future[int], tasks)
	for i := range futs {
		futs[i] = pool.Submit(pl, noop)
	}
	for _, f := range futs {
		f.Get()
	}
	telemetry.SetMetrics(false)
	wait, _ := telemetry.Snapshot()["pool.task_wait_ns"].(telemetry.HistogramSnapshot)
	p.count("pool.task_wait_us_p50", wait.P50/1e3)

	const chunks, chunkSize = 64, 16
	identity := value.NewProc("identity", 1, func(args ...value.V) core.Gen { return core.Unit(args[0]) })
	source := value.NewProc("source", 0, func(...value.V) core.Gen { return core.IntRange(1, chunks*chunkSize) })
	sum := value.NewProc("sum", 2, func(args ...value.V) core.Gen { return core.Unit(value.Add(args[0], args[1])) })
	cfg := mapreduce.Config{ChunkSize: chunkSize, Pool: pl}
	p.set("mapreduce.chunk_task_us", p.timed("mapreduce.MapReduce", chunks, us, func() {
		core.Count(cfg.MapReduce(identity, source, sum, value.NewInt(0)))
	}))

	lines := p.e.lines
	p.set("streams.mapreduce_ms", p.timed("streams.ParallelMapReduce", 1, ms, func() {
		streams.ParallelMapReduce(streams.FromSlice(lines), streams.ParallelConfig{},
			func(string) int { return 1 }, 0,
			func(a, n int) int { return a + n }, func(a, b int) int { return a + b })
	}))
}

// countNodes is the size of a syntax tree.
func countNodes(n ast.Node) int {
	total := 1
	for _, c := range ast.Children(n) {
		total += countNodes(c)
	}
	return total
}

// compileEnv resolves names for compile.Proc and compile.Expr the way the
// interpreter does: globals of the loaded set, then builtins, then
// natives; a call is direct when the facts prove the callee pure with at
// most one result.
func compileEnv(decls []ast.Node, facts *analyze.Facts, natives []string, topLevel bool) compile.Env {
	globals := map[string]*value.Var{}
	define := func(name string) {
		if globals[name] == nil {
			globals[name] = value.NewCell(value.NullV)
		}
	}
	for _, d := range decls {
		switch x := d.(type) {
		case *ast.ProcDecl:
			define(x.Name)
		case *ast.RecordDecl:
			define(x.Name)
		case *ast.GlobalDecl:
			for _, n := range x.Names {
				define(n)
			}
		}
	}
	consts := core.Builtins(io.Discard)
	for k, v := range core.ScanBuiltins(core.NewScanHolder()) {
		consts[k] = v
	}
	nat := map[string]*value.Native{}
	for _, n := range natives {
		nat[n] = value.NewNative(n, func(...value.V) (value.V, error) { return nil, nil })
	}
	env := compile.Env{
		LookupGlobal: func(name string) (*value.Var, bool) { v, ok := globals[name]; return v, ok },
		LookupConst: func(name string) (value.V, bool) {
			if b, ok := consts[name]; ok {
				return b, true
			}
			n, ok := nat[name]
			return n, ok
		},
		Native: func(name string) (*value.Native, bool) { n, ok := nat[name]; return n, ok },
		CallDirect: func(name string) bool {
			pf, ok := facts.Proc(name)
			return ok && pf.Effects.Fusable() && pf.Yields.AtMost(1)
		},
	}
	if topLevel {
		env.DefineGlobal = func(name string) *value.Var { define(name); return globals[name] }
	}
	return env
}

// setSources are the sources a fresh interpreter of the set loads, in
// order, and the natives it has registered.
func setSources(set string, programs []program) (srcs, natives []string) {
	if set == "vm" {
		srcs = append(srcs, wordcount.Figure3Source)
		natives = []string{"wordToNumber", "hashNumber", "split"}
	}
	for _, pr := range programs {
		srcs = append(srcs, pr.src)
	}
	return srcs, natives
}

// frontEnd is one composed load of a program set: the public calls
// interp.LoadProgram makes, made from here so each is its own span.
type frontEnd struct {
	tokens, nodes, nodesOut  int
	units, fallback, codeOps int
	lex, parse, norm, facts  time.Duration
	compile                  time.Duration
	rejected                 map[string]string // unit → the compiler's reason
}

func composeLoad(set string, programs []program, tr *recorder, parent, run int) (frontEnd, error) {
	fe := frontEnd{rejected: map[string]string{}}
	srcs, natives := setSources(set, programs)
	var decls []ast.Node
	span := func(name string, f func()) time.Duration {
		id := tr.begin(name, parent, run)
		t0 := time.Now()
		f()
		dt := time.Since(t0)
		tr.end(id)
		return dt
	}
	for _, src := range srcs {
		var err error
		fe.lex += span("lexer.Tokens", func() {
			var toks []lexer.Token
			toks, err = lexer.Tokens(src)
			fe.tokens += len(toks)
		})
		if err != nil {
			return fe, err
		}
		var prog *ast.Program
		fe.parse += span("parser.ParseProgram", func() { prog, err = parser.ParseProgram(src) })
		if err != nil {
			return fe, err
		}
		fe.nodes += countNodes(prog)
		var norm *ast.Program
		fe.norm += span("transform.Normalize", func() { norm = transform.Normalize(prog).(*ast.Program) })
		fe.nodesOut += countNodes(norm)
		decls = append(decls, norm.Decls...)
	}
	var drivers []ast.Node
	var driverNames []string
	for _, pr := range programs {
		for _, d := range pr.drivers {
			e, err := parser.ParseExpression(d)
			if err != nil {
				return fe, err
			}
			drivers = append(drivers, transform.Normalize(e))
			driverNames = append(driverNames, d)
		}
	}
	var facts *analyze.Facts
	fe.facts = span("analyze.ProgramFacts", func() {
		_, facts = analyze.ProgramFacts(&ast.Program{Decls: append(append([]ast.Node{}, decls...), drivers...)}, analyze.Options{})
	})
	unit := func(span_, name string, f func() (*compile.Code, error)) {
		var code *compile.Code
		var err error
		fe.compile += span(span_, func() { code, err = f() })
		fe.units++
		if err != nil {
			fe.fallback++
			fe.rejected[name] = err.Error()
			return
		}
		fe.codeOps += len(code.Instrs)
	}
	procEnv, exprEnv := compileEnv(decls, facts, natives, false), compileEnv(decls, facts, natives, true)
	for _, d := range decls {
		if pd, ok := d.(*ast.ProcDecl); ok {
			unit("compile.Proc", pd.Name, func() (*compile.Code, error) { return compile.Proc(pd, procEnv) })
		}
	}
	for i, d := range drivers {
		unit("compile.Expr", driverNames[i], func() (*compile.Code, error) { return compile.Expr(d, exprEnv) })
	}
	return fe, nil
}

// language: the front end on the workload's program set.
func (p *prober) language() error {
	set := p.e.w.scripts
	var loads []frontEnd
	var err error
	budget{d: p.d, rounds: minRounds}.loop(func(int) {
		root := p.tr.begin("load(composed)", -1, p.run)
		fe, lerr := composeLoad(set, p.e.programs, p.tr, root, p.run)
		p.tr.end(root)
		if lerr != nil {
			err = lerr
		}
		loads = append(loads, fe)
	})
	if err != nil {
		return err
	}
	med := func(unit string, pick func(frontEnd) float64) Stat {
		xs := make([]float64, len(loads))
		for i, fe := range loads {
			xs[i] = pick(fe)
		}
		return summarize(xs, unit)
	}
	fe := loads[0]
	p.set("lexer.tokens_per_s", med("", func(f frontEnd) float64 { return float64(f.tokens) / f.lex.Seconds() }))
	p.set("parser.parse_ms", med("", func(f frontEnd) float64 { return f.parse.Seconds() * 1e3 }))
	p.set("transform.normalize_ms", med("", func(f frontEnd) float64 { return f.norm.Seconds() * 1e3 }))
	p.set("analyze.facts_ms", med("", func(f frontEnd) float64 { return f.facts.Seconds() * 1e3 }))
	p.set("compile.compile_ms", med("", func(f frontEnd) float64 { return f.compile.Seconds() * 1e3 }))
	p.count("parser.nodes", float64(fe.nodes))
	p.count("transform.nodes_out", float64(fe.nodesOut))
	p.count("compile.units", float64(fe.units))
	p.count("compile.code_ops", float64(fe.codeOps))
	p.count("compile.fallback_units", float64(fe.fallback))
	return nil
}

// evaluators: what one result of a pure kernel product costs under the
// tree walk and under the VM, and how many opcodes the VM executes for
// one pass over the set's driver expressions.
func (p *prober) evaluators() error {
	const expr, results = "(1 to 200) + (1 to 100)", 200 * 100
	for _, ev := range []struct {
		layer string
		opts  []interp.Option
	}{{"interp", nil}, {"vm", []interp.Option{interp.WithVM()}}} {
		in := interp.New(append([]interp.Option{interp.WithOutput(io.Discard)}, ev.opts...)...)
		var err error
		drainOnce := func() {
			g, gerr := in.EvalGen(expr)
			if gerr != nil {
				err = gerr
				return
			}
			if n := core.Count(g); n != results {
				err = fmt.Errorf("%s: %q gave %d results, want %d", ev.layer, expr, n, results)
			}
		}
		p.set(ev.layer+".run_ns_per_result", p.timed(ev.layer+".drain", results, ns, drainOnce))
		p.count(ev.layer+".allocs_per_result", mallocs(drainOnce)/results)
		if err != nil {
			return err
		}
	}
	// One pass over the set's drivers under the VM with its profiler on,
	// in a process of its own like every script run.
	sr, err := spawnSet(p.e.w.scripts, evaluators[2], true)
	if err != nil {
		return err
	}
	ops := sr.Ops
	p.count("vm.ops_executed", ops)
	return nil
}

// wire: the codec on the integers remote-stream carries, value by value
// and in 64-value batches, and on the argument list one dist-wordcount
// worker receives (half of the 20000-line corpus).
func (p *prober) wire() error {
	const n, batch = 1 << 14, 64
	vals := make([]value.V, n)
	for i := range vals {
		vals[i] = value.NewInt(int64(i + 1))
	}
	enc := make([][]byte, n)
	var err error
	p.set("wire.marshal_ns_per_value", p.timed("wire.Marshal", n, ns, func() {
		for i, v := range vals {
			if enc[i], err = wire.Marshal(v); err != nil {
				return
			}
		}
	}))
	if err != nil {
		return err
	}
	size := 0
	for _, b := range enc {
		size += len(b)
	}
	p.count("wire.bytes_per_value", float64(size)/n)
	p.set("wire.unmarshal_ns_per_value", p.timed("wire.Unmarshal", n, ns, func() {
		for _, b := range enc {
			if _, err = wire.Unmarshal(b); err != nil {
				return
			}
		}
	}))
	if err != nil {
		return err
	}
	var frames [][]byte
	var scratch []byte
	p.set("wire.batch_append_ns_per_value", p.timed("wire.AppendBatch", n, ns, func() {
		frames = frames[:0]
		for i := 0; i < n; i += batch {
			scratch = wire.AppendBatch(scratch[:0], enc[i:i+batch])
			frames = append(frames, append([]byte(nil), scratch...))
		}
	}))
	dst := make([]value.V, 0, batch)
	p.set("wire.batch_unmarshal_ns_per_value", p.timed("wire.UnmarshalBatchInto", n, ns, func() {
		for _, f := range frames {
			if dst, err = wire.UnmarshalBatchInto(dst[:0], f, wire.DefaultLimits); err != nil {
				return
			}
		}
	}))
	if err != nil {
		return err
	}

	list := value.NewList()
	for _, l := range wordcount.GenerateLines(10_000, wordsOnLine, 1) {
		list.Put(value.String(l))
	}
	var blob []byte
	p.set("wire.marshal_list_ms", p.timed("wire.Marshal(list)", 1, ms, func() { blob, err = wire.Marshal(list) }))
	if err != nil {
		return err
	}
	p.set("wire.unmarshal_list_ms", p.timed("wire.Unmarshal(list)", 1, ms, func() { _, err = wire.Unmarshal(blob) }))
	return err
}

// rangeGenerator is junicond's "range", for the in-process server.
func rangeGenerator(args []value.V) (core.Gen, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("range: want [lo, hi]")
	}
	lo, ok1 := value.ToInteger(args[0])
	hi, ok2 := value.ToInteger(args[1])
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("range: integer arguments required")
	}
	l, _ := lo.Int64()
	h, _ := hi.Int64()
	return core.IntRange(l, h), nil
}

// daemonCounters reads the counters of daemon 0 that the remote metrics
// are ratios of.
func (p *prober) daemonCounters() (map[string]float64, telemetry.HistogramSnapshot, error) {
	vars, err := p.e.daemons[0].vars()
	if err != nil {
		return nil, telemetry.HistogramSnapshot{}, err
	}
	out := map[string]float64{}
	for _, name := range []string{"remote.frames_tx", "remote.bytes_tx", "remote.mux.flushes", "remote.server.values", "remote.server.credit_stall_ns"} {
		var n float64
		if err := json.Unmarshal(vars[name], &n); err != nil {
			return nil, telemetry.HistogramSnapshot{}, fmt.Errorf("junicond /debug/vars: %s: %v", name, err)
		}
		out[name] = n
	}
	var flush telemetry.HistogramSnapshot
	if err := json.Unmarshal(vars["remote.mux.flush_bytes"], &flush); err != nil {
		return nil, flush, fmt.Errorf("junicond /debug/vars: remote.mux.flush_bytes: %v", err)
	}
	return out, flush, nil
}

// histogramDelta is the histogram of the observations made between two
// snapshots of it.
func histogramDelta(before, after telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	was := map[int64]int64{}
	for _, b := range before.Buckets {
		was[b.Le] = b.N
	}
	d := telemetry.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Max: after.Max}
	for _, b := range after.Buckets {
		if n := b.N - was[b.Le]; n > 0 {
			d.Buckets = append(d.Buckets, telemetry.Bucket{Le: b.Le, N: n})
		}
	}
	return d
}

// remote: the protocol without the process boundary (phases A and B of
// remote-stream against a server in this process), the parts of a stream's
// life against a daemon, and the frame, flush and credit counts per value
// that the daemon and this process keep, over phase A traffic.
func (p *prober) remote() error {
	srv, local, err := inProcess()
	if err != nil {
		return err
	}
	defer srv.Close()
	var r laneResult
	d := &remote.Dialer{}
	defer d.Close()
	var rates, waits []float64
	const values = 200_000
	budget{d: p.d, rounds: minRounds}.loop(func(int) {
		if rate, ok := streamA(d, local, values, &r, p.tr); ok {
			rates = append(rates, rate)
		}
	})
	budget{d: p.d, rounds: 1}.loop(func(int) {
		waits = append(waits, streamB(d, local, 2_000, &r, p.tr)...)
	})
	p.set("remote.inproc_values_per_s", summarize(rates, ""))
	p.set("remote.inproc_rtt_us_p50", summarize(waits, ""))

	addr := p.e.addrs[0]
	short := remote.Config{Buffer: stormBuffer}
	var dial, open, stop []float64
	budget{d: p.d, rounds: 20}.loop(func(int) {
		fresh := &remote.Dialer{}
		st, err := drainRange(fresh, addr, 50, short, false, p.tr)
		fresh.Close()
		r.attempted++
		if err != nil {
			r.fail("dial probe: %v", err)
			return
		}
		dial = append(dial, float64(st.first.Nanoseconds())/1e3)
	})
	budget{d: p.d, rounds: 20}.loop(func(int) {
		st, err := drainRange(d, addr, 50, short, false, p.tr)
		r.attempted++
		if err != nil {
			r.fail("open probe: %v", err)
			return
		}
		open = append(open, float64(st.first.Nanoseconds())/1e3)
		stop = append(stop, float64(st.stop.Nanoseconds())/1e3)
	})
	p.set("remote.dial_first_value_us", summarize(dial, ""))
	p.set("remote.open_first_value_us", summarize(open, ""))
	p.set("remote.stop_us", summarize(stop, ""))

	telemetry.SetMetrics(true)
	defer telemetry.SetMetrics(false)
	before, flushBefore, err := p.daemonCounters()
	if err != nil {
		return err
	}
	mine := telemetry.Snapshot()
	t0 := time.Now()
	budget{d: p.d, rounds: 1}.loop(func(int) { streamA(d, addr, values, &r, p.tr) })
	wall := float64(time.Since(t0).Nanoseconds())
	after, flushAfter, err := p.daemonCounters()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	n := delta("remote.server.values")
	if n == 0 {
		return fmt.Errorf("junicond counted no values over the probe traffic")
	}
	p.count("remote.frames_per_value", delta("remote.frames_tx")/n)
	p.count("remote.bytes_per_value", delta("remote.bytes_tx")/n)
	p.count("remote.flushes_per_value", delta("remote.mux.flushes")/n)
	p.count("remote.flush_bytes_p50", histogramDelta(flushBefore, flushAfter).Quantile(0.5))
	p.count("remote.credits_per_value", (counter(telemetry.Snapshot(), "remote.client.credits_sent")-counter(mine, "remote.client.credits_sent"))/n)
	const consumers = 2 // streamA's; each stream's producer stalls on its own
	p.count("remote.credit_stall_share", delta("remote.server.credit_stall_ns")/wall/consumers)
	if r.failed > 0 {
		return fmt.Errorf("remote probes: %d of %d streams failed: %v", r.failed, r.attempted, r.notes)
	}
	return nil
}

// checkpoint: capture and restore of a primesBelow frame suspended after
// ten results.
func (p *prober) checkpoint() error {
	const program = `
def isprime(n) {
  if n < 2 then fail;
  every d := 2 to n-1 do { if not (n % d ~= 0) then fail };
  return n;
}
def primesBelow(limit) { suspend isprime(2 to limit); }
`
	const expr, produced = "primesBelow(100000)", 10
	in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
	if err := in.LoadProgram(program); err != nil {
		return err
	}
	g, err := in.EvalGen(expr)
	if err != nil {
		return err
	}
	for i := 0; i < produced; i++ {
		g.Next()
	}
	meta := checkpoint.Meta{Program: program, Expr: expr, Produced: produced}
	var blob []byte
	p.set("checkpoint.snapshot_us", p.timed("checkpoint.Snapshot", 1, us, func() { blob, err = checkpoint.Snapshot(g, meta) }))
	if err != nil {
		return err
	}
	p.count("checkpoint.blob_bytes", float64(len(blob)))
	p.set("checkpoint.restore_us", p.timed("checkpoint.Restore", 1, us, func() { _, _, err = in.RestoreSnapshot(blob) }))
	return err
}
