// Benchmarks regenerating the paper's evaluation (see EXPERIMENTS.md):
//
//   - BenchmarkFig6_* — one benchmark per bar of Figure 6: {Lightweight,
//     Heavyweight} × {Junicon, Go} × {Sequential, Pipeline, DataParallel,
//     MapReduce}, the go-test counterpart of `go run ./cmd/fig6`.
//   - BenchmarkFig2_* — the pipeline vs data-parallel decomposition of
//     Figure 2 on one workload.
//   - BenchmarkAblation* — the ablations indexed in DESIGN.md: pipe-buffer
//     throttling (B), chunk size (C), and interpreted vs translated
//     embedding (D).
//   - BenchmarkKernel* / BenchmarkQueue* — supporting microbenchmarks for
//     the substrate costs discussed in §5B (zero-cost suspend, queue ops).
package junicon_test

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"junicon"
	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/pipe"
	"junicon/internal/queue"
	"junicon/internal/remote"
	"junicon/internal/value"
	"junicon/internal/wordcount"
)

var (
	corpusOnce  sync.Once
	lightCorpus []string
	heavyCorpus []string
)

func corpora() ([]string, []string) {
	corpusOnce.Do(func() {
		lightCorpus = wordcount.GenerateLines(200, 10, 1)
		heavyCorpus = wordcount.GenerateLines(25, 10, 1)
	})
	return lightCorpus, heavyCorpus
}

func embCfg(lines []string) wordcount.EmbeddedConfig {
	chunk := len(lines) / 8
	if chunk < 1 {
		chunk = 1
	}
	return wordcount.EmbeddedConfig{ChunkSize: chunk}
}

// ---- Figure 6, lightweight ----

func BenchmarkFig6_Light_Junicon_Sequential(b *testing.B) {
	lines, _ := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconSequential(lines, wordcount.Light, embCfg(lines))
	}
}

func BenchmarkFig6_Light_Junicon_Pipeline(b *testing.B) {
	lines, _ := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconPipeline(lines, wordcount.Light, embCfg(lines))
	}
}

func BenchmarkFig6_Light_Junicon_DataParallel(b *testing.B) {
	lines, _ := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconDataParallel(lines, wordcount.Light, embCfg(lines))
	}
}

func BenchmarkFig6_Light_Junicon_MapReduce(b *testing.B) {
	lines, _ := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconMapReduce(lines, wordcount.Light, embCfg(lines))
	}
}

func BenchmarkFig6_Light_Go_Sequential(b *testing.B) {
	lines, _ := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.NativeSequential(lines, wordcount.Light)
	}
}

func BenchmarkFig6_Light_Go_Pipeline(b *testing.B) {
	lines, _ := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.NativePipeline(lines, wordcount.Light, wordcount.NativeConfig{})
	}
}

func BenchmarkFig6_Light_Go_DataParallel(b *testing.B) {
	lines, _ := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.NativeDataParallel(lines, wordcount.Light, wordcount.NativeConfig{})
	}
}

func BenchmarkFig6_Light_Go_MapReduce(b *testing.B) {
	lines, _ := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.NativeMapReduce(lines, wordcount.Light, wordcount.NativeConfig{})
	}
}

// ---- Figure 6, heavyweight ----

func BenchmarkFig6_Heavy_Junicon_Sequential(b *testing.B) {
	_, lines := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconSequential(lines, wordcount.Heavy, embCfg(lines))
	}
}

func BenchmarkFig6_Heavy_Junicon_Pipeline(b *testing.B) {
	_, lines := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconPipeline(lines, wordcount.Heavy, embCfg(lines))
	}
}

func BenchmarkFig6_Heavy_Junicon_DataParallel(b *testing.B) {
	_, lines := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconDataParallel(lines, wordcount.Heavy, embCfg(lines))
	}
}

func BenchmarkFig6_Heavy_Junicon_MapReduce(b *testing.B) {
	_, lines := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconMapReduce(lines, wordcount.Heavy, embCfg(lines))
	}
}

func BenchmarkFig6_Heavy_Go_Sequential(b *testing.B) {
	_, lines := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.NativeSequential(lines, wordcount.Heavy)
	}
}

func BenchmarkFig6_Heavy_Go_Pipeline(b *testing.B) {
	_, lines := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.NativePipeline(lines, wordcount.Heavy, wordcount.NativeConfig{})
	}
}

func BenchmarkFig6_Heavy_Go_DataParallel(b *testing.B) {
	_, lines := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.NativeDataParallel(lines, wordcount.Heavy, wordcount.NativeConfig{})
	}
}

func BenchmarkFig6_Heavy_Go_MapReduce(b *testing.B) {
	_, lines := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.NativeMapReduce(lines, wordcount.Heavy, wordcount.NativeConfig{})
	}
}

// ---- Figure 2: pipeline vs data-parallel decomposition ----

func BenchmarkFig2_PipelineDecomposition(b *testing.B) {
	lines, _ := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconPipeline(lines, wordcount.Light, embCfg(lines))
	}
}

func BenchmarkFig2_DataParallelDecomposition(b *testing.B) {
	lines, _ := corpora()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconDataParallel(lines, wordcount.Light, embCfg(lines))
	}
}

// ---- Ablation B: pipe buffer bound as throttle (§3B) ----

func benchBuffer(b *testing.B, buf int) {
	lines, _ := corpora()
	cfg := wordcount.EmbeddedConfig{Buffer: buf}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconPipeline(lines, wordcount.Light, cfg)
	}
}

func BenchmarkAblationBuffer_1(b *testing.B)    { benchBuffer(b, 1) }
func BenchmarkAblationBuffer_4(b *testing.B)    { benchBuffer(b, 4) }
func BenchmarkAblationBuffer_64(b *testing.B)   { benchBuffer(b, 64) }
func BenchmarkAblationBuffer_1024(b *testing.B) { benchBuffer(b, 1024) }

// ---- Ablation C: map-reduce chunk size (Figure 4) ----

func benchChunk(b *testing.B, chunk int) {
	lines, _ := corpora()
	cfg := wordcount.EmbeddedConfig{ChunkSize: chunk}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconMapReduce(lines, wordcount.Light, cfg)
	}
}

func BenchmarkAblationChunk_10(b *testing.B)   { benchChunk(b, 10) }
func BenchmarkAblationChunk_50(b *testing.B)   { benchChunk(b, 50) }
func BenchmarkAblationChunk_200(b *testing.B)  { benchChunk(b, 200) }
func BenchmarkAblationChunk_1000(b *testing.B) { benchChunk(b, 1000) }

// ---- Ablation H: workers × window (pooled data-parallel scheduler) ----

func benchWindow(b *testing.B, workers, window int) {
	lines, _ := corpora()
	cfg := wordcount.EmbeddedConfig{ChunkSize: 10, Workers: workers, Window: window}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconMapReduce(lines, wordcount.Light, cfg)
	}
}

func BenchmarkAblationWindow_W2_Win1(b *testing.B)  { benchWindow(b, 2, 1) }
func BenchmarkAblationWindow_W2_Win4(b *testing.B)  { benchWindow(b, 2, 4) }
func BenchmarkAblationWindow_W2_Win16(b *testing.B) { benchWindow(b, 2, 16) }
func BenchmarkAblationWindow_W4_Win1(b *testing.B)  { benchWindow(b, 4, 1) }
func BenchmarkAblationWindow_W4_Win8(b *testing.B)  { benchWindow(b, 4, 8) }

// ---- Ablation D: interpreted vs translated embedding ----

func BenchmarkAblationInterp_Sequential(b *testing.B) {
	lines, _ := corpora()
	small := lines[:50]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wordcount.InterpretedSequential(small, wordcount.Light); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTranslated_Kernel runs the hand-written kernel
// compositions (wordcount.JuniconSequential), not translator output.
func BenchmarkAblationTranslated_Kernel(b *testing.B) {
	lines, _ := corpora()
	small := lines[:50]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconSequential(small, wordcount.Light, wordcount.EmbeddedConfig{})
	}
}

// ---- Ablation: |> provisioned from facts (WithOptimize) on vs off ----
//
// Each pair runs one embedded workload through the tree walk without and
// with interp.WithOptimize. The On lanes include the cost of computing
// facts per evaluation — the win has to pay for its own analysis. The
// differential suite (semtest's Optimized lanes) pins that every pair
// produces identical traces; these pin what each decision buys:
//
//   - HashPipe is the Figure 6 pipeline decomposition with the hash
//     stage in pure Junicon (stream of items |> light arithmetic hash,
//     drained): facts prove the producer pure, so the pipe inlines —
//     no goroutine, no queue round-trips.
//   - ShortPipe is a short effectful producer (ten writes of a global):
//     facts bound its yields, so the queue holds the whole sequence —
//     eleven slots instead of pipe.DefaultBuffer; B/op is the number.
//   - The Fig6WordCount/Fig6Pipeline lanes run Figure 3's mixed-language
//     program, whose host native stages are effect-opaque — its |> is
//     provisioned as without facts — pinning that WithOptimize does not
//     regress the workloads it cannot prove anything about.

func benchFactsExpr(b *testing.B, program, expr string, optimize bool) {
	opts := []interp.Option{interp.WithOutput(io.Discard)}
	if optimize {
		opts = append(opts, interp.WithOptimize())
	}
	in := interp.New(opts...)
	if err := in.LoadProgram(program); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := in.EvalGen(expr)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := g.Next(); !ok {
				break
			}
		}
	}
}

const (
	hashPipeExpr  = `!(|> ((1 to 2000) * 31))`
	shortPipeExpr = `!(|> (g := (1 to 10)))`
)

func BenchmarkAblationFacts_HashPipe_Off(b *testing.B) { benchFactsExpr(b, "", hashPipeExpr, false) }
func BenchmarkAblationFacts_HashPipe_On(b *testing.B)  { benchFactsExpr(b, "", hashPipeExpr, true) }

func BenchmarkAblationFacts_ShortPipe_Off(b *testing.B) {
	benchFactsExpr(b, "global g", shortPipeExpr, false)
}
func BenchmarkAblationFacts_ShortPipe_On(b *testing.B) {
	benchFactsExpr(b, "global g", shortPipeExpr, true)
}

func benchFactsWordCount(b *testing.B, pipeline, optimize bool) {
	lines, _ := corpora()
	small := lines[:50]
	var opts []interp.Option
	if optimize {
		opts = append(opts, interp.WithOptimize())
	}
	// Load once, evaluate per iteration — the embedding steady state. The
	// On lane still pays the incremental per-eval analysis of each parsed
	// expression; only the whole-program fixpoint is amortized into setup.
	in, err := wordcount.NewInterpreter(small, wordcount.Light, opts...)
	if err != nil {
		b.Fatal(err)
	}
	expr := wordcount.SequentialExpr
	if pipeline {
		expr = wordcount.PipelineExpr
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wordcount.InterpSum(in, expr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFacts_Fig6WordCount_Off(b *testing.B) {
	benchFactsWordCount(b, false, false)
}
func BenchmarkAblationFacts_Fig6WordCount_On(b *testing.B) {
	benchFactsWordCount(b, false, true)
}
func BenchmarkAblationFacts_Fig6Pipeline_Off(b *testing.B) {
	benchFactsWordCount(b, true, false)
}
func BenchmarkAblationFacts_Fig6Pipeline_On(b *testing.B) {
	benchFactsWordCount(b, true, true)
}

// ---- Kernel and substrate microbenchmarks ----

func BenchmarkKernelProduct(b *testing.B) {
	g := core.Product(core.IntRange(1, 100), core.IntRange(1, 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.Count(g)
	}
}

func BenchmarkKernelSuspendResume(b *testing.B) {
	// The cost of suspend/resume in a generator function (§5B's
	// "zero cost for suspends" claim, here coroutine-based).
	g := core.NewGen(func(yield func(core.V) bool) {
		for {
			if !yield(value.IntV(1)) {
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
	b.StopTimer()
	g.Restart()
}

func BenchmarkKernelPipeThroughput(b *testing.B) {
	lines := int64(b.N)
	p := junicon.PipeOf(junicon.Range(1, lines, 1), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Next(); !ok {
			break
		}
	}
	b.StopTimer()
	p.Stop()
}

// BenchmarkKernelPipeThroughputBatched is BenchmarkKernelPipeThroughput
// with the consumer's run capped at 64 instead of the default 256: same
// source, same buffer, same path.
func BenchmarkKernelPipeThroughputBatched(b *testing.B) {
	lines := int64(b.N)
	p := pipe.FromGenBatched(junicon.Range(1, lines, 1), 256, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Next(); !ok {
			break
		}
	}
	b.StopTimer()
	p.Stop()
}

// ---- Ablation G: run cap on the local hop (1 = a queue visit per value) ----

func benchPipeBatch(b *testing.B, batch int) {
	lines := int64(b.N)
	p := pipe.FromGenBatched(junicon.Range(1, lines, 1), 1024, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Next(); !ok {
			break
		}
	}
	b.StopTimer()
	p.Stop()
}

func BenchmarkAblationPipeBatch_1(b *testing.B)   { benchPipeBatch(b, 1) }
func BenchmarkAblationPipeBatch_8(b *testing.B)   { benchPipeBatch(b, 8) }
func BenchmarkAblationPipeBatch_64(b *testing.B)  { benchPipeBatch(b, 64) }
func BenchmarkAblationPipeBatch_512(b *testing.B) { benchPipeBatch(b, 512) }

// ---- Ablation G: batch size over the remote transport (loopback TCP) ----

var (
	remoteBenchOnce sync.Once
	remoteBenchAddr string
)

// remoteBenchServer starts one loopback server shared by the remote-batch
// sweep, serving the same integer range the local sweep streams.
func remoteBenchServer(b *testing.B) string {
	b.Helper()
	remoteBenchOnce.Do(func() {
		s := remote.NewServer()
		s.Register("range", func(args []value.V) (core.Gen, error) {
			lo := int64(value.MustInt(args[0]))
			hi := int64(value.MustInt(args[1]))
			return core.IntRange(lo, hi), nil
		})
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		remoteBenchAddr = addr.String()
	})
	return remoteBenchAddr
}

// benchRemoteBatch streams b.N integers over loopback TCP with the given
// VALUES run cap. Batch 1 is runs of one — a frame and a credit grant per
// value — so it doubles as the unbatched baseline.
func benchRemoteBatch(b *testing.B, batch int) {
	addr := remoteBenchServer(b)
	p := remote.Open(addr, "range",
		[]value.V{value.NewInt(1), value.NewInt(int64(b.N))},
		remote.Config{Buffer: 1024, Batch: batch})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Next(); !ok {
			b.Fatalf("remote pipe ended after %d of %d values: %v", i, b.N, p.Err())
		}
	}
	b.StopTimer()
	p.Stop()
}

func BenchmarkAblationRemoteBatch_1(b *testing.B)   { benchRemoteBatch(b, 1) }
func BenchmarkAblationRemoteBatch_8(b *testing.B)   { benchRemoteBatch(b, 8) }
func BenchmarkAblationRemoteBatch_64(b *testing.B)  { benchRemoteBatch(b, 64) }
func BenchmarkAblationRemoteBatch_512(b *testing.B) { benchRemoteBatch(b, 512) }

func BenchmarkQueuePutTake(b *testing.B) {
	q := queue.NewArrayBlocking[int](64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := q.Take(); err != nil {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Put(i)
	}
	b.StopTimer()
	q.Close()
	<-done
}

func BenchmarkInterpEvalExpression(b *testing.B) {
	in := junicon.NewInterp(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.Eval("(1 to 10) + (1 to 10)", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation E: pipe transport queue capacity ----
//
// There is one queue; what §3B varies is its buffer size. The sweep runs
// the same single-stage pipe over the capacities the constructors
// configure: M-var (1), a bounded buffer (64), unbounded.

func benchQueueCapacity(b *testing.B, mk func() queue.Queue[value.V]) {
	for i := 0; i < b.N; i++ {
		// A single pipeline stage over the chosen transport.
		src := core.NewFirstClass(core.IntRange(1, 2000))
		p := pipe.NewBatchedWithQueue(src, mk, 0)
		core.Drain(p, 0)
	}
}

func BenchmarkAblationQueue_1(b *testing.B) {
	benchQueueCapacity(b, func() queue.Queue[value.V] { return queue.NewMVar[value.V]() })
}

func BenchmarkAblationQueue_64(b *testing.B) {
	benchQueueCapacity(b, func() queue.Queue[value.V] { return queue.NewArrayBlocking[value.V](64) })
}

func BenchmarkAblationQueueUnbounded(b *testing.B) {
	benchQueueCapacity(b, func() queue.Queue[value.V] { return queue.NewLinkedBlocking[value.V]() })
}

func BenchmarkKernelScanTokenize(b *testing.B) {
	in := junicon.NewInterp(nil)
	if err := in.LoadProgram(`
def tokens(s) {
  s ? {
    while not pos(0) do {
      tab(many(' '));
      if pos(0) then break;
      w := tab(many(&letters ++ &digits)) | move(1);
      suspend w;
    };
  };
}`); err != nil {
		b.Fatal(err)
	}
	g, err := in.EvalGen(`tokens("the quick brown fox 42 jumps over 13 lazy dogs")`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Count(g) // auto-restarts each cycle
	}
}

// ---- Compiled execution: bytecode vm vs tree walk vs translation ----
//
// Each BenchmarkVM* workload runs under the tree-walking evaluator and
// under WithVM — identical programs, identical traces
// (the semtest Compiled lanes pin that) — so the pair isolates what
// compiling to slot-framed bytecode buys. The Fig6 lanes add the
// translated kernel composition as the ceiling: ahead-of-time Go
// emission with no interpreter in the loop.
//
// Two regimes matter. The Fig6 word-count lanes are the paper's
// embedded workload, dominated by host native calls — the vm only
// accelerates the generator plumbing between natives. The drain lanes
// (Primes, EveryLoop, Product, Calls) are pure Junicon, where
// evaluator overhead is the whole cost and the vm's win is starkest.

// benchVMDrain loads a program once, builds one generator for expr, and
// drains it per iteration — generators auto-restart after exhaustion, so
// each iteration replays the full sequence. This is the evaluator
// steady state: no parse or compile inside the loop on either side.
func benchVMDrain(b *testing.B, program, expr string, vm bool) {
	opts := []interp.Option{interp.WithOutput(io.Discard)}
	if vm {
		opts = append(opts, interp.WithVM())
	}
	in := interp.New(opts...)
	if program != "" {
		if err := in.LoadProgram(program); err != nil {
			b.Fatal(err)
		}
	}
	g, err := in.EvalGen(expr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Count(g)
	}
}

const vmPrimesProgram = `
def isprime(n) {
  if n < 2 then fail;
  every d := 2 to n-1 do { if not (n % d ~= 0) then fail };
  return n;
}
def primesBelow(limit) {
  suspend isprime(2 to limit);
}`

func BenchmarkVMPrimes_TreeWalk(b *testing.B) {
	benchVMDrain(b, vmPrimesProgram, `primesBelow(200)`, false)
}
func BenchmarkVMPrimes_VM(b *testing.B) {
	benchVMDrain(b, vmPrimesProgram, `primesBelow(200)`, true)
}

func BenchmarkVMEveryLoop_TreeWalk(b *testing.B) {
	benchVMDrain(b, "", `{ t := 0; every t +:= (1 to 2000); t }`, false)
}
func BenchmarkVMEveryLoop_VM(b *testing.B) {
	benchVMDrain(b, "", `{ t := 0; every t +:= (1 to 2000); t }`, true)
}

func BenchmarkVMProduct_TreeWalk(b *testing.B) {
	benchVMDrain(b, "", `(1 to 60) * (1 to 60)`, false)
}
func BenchmarkVMProduct_VM(b *testing.B) {
	benchVMDrain(b, "", `(1 to 60) * (1 to 60)`, true)
}

const vmCallsProgram = `def double(x) { return x * 2; }`

func BenchmarkVMCalls_TreeWalk(b *testing.B) {
	benchVMDrain(b, vmCallsProgram, `double(1 to 2000)`, false)
}
func BenchmarkVMCalls_VM(b *testing.B) {
	benchVMDrain(b, vmCallsProgram, `double(1 to 2000)`, true)
}

// benchVMWordCount is the Figure 3 embedding steady state (load once,
// evaluate per iteration), as in benchAnalyzeWordCount, with compiled
// execution toggled. The vm lane pays expression compilation inside the
// loop — the win has to carry its own lowering cost, as the embedding
// would experience it.
func benchVMWordCount(b *testing.B, pipeline, vm bool) {
	lines, _ := corpora()
	small := lines[:50]
	var opts []interp.Option
	if vm {
		opts = append(opts, interp.WithVM())
	}
	in, err := wordcount.NewInterpreter(small, wordcount.Light, opts...)
	if err != nil {
		b.Fatal(err)
	}
	expr := wordcount.SequentialExpr
	if pipeline {
		expr = wordcount.PipelineExpr
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wordcount.InterpSum(in, expr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMFig6_WordCount_TreeWalk(b *testing.B) { benchVMWordCount(b, false, false) }
func BenchmarkVMFig6_WordCount_VM(b *testing.B)       { benchVMWordCount(b, false, true) }

// The pipeline pair pins that compiled generators feed the pipe/thread
// machinery unchanged — the vm frame is just another Gen behind |>.
func BenchmarkVMFig6_Pipeline_TreeWalk(b *testing.B) { benchVMWordCount(b, true, false) }
func BenchmarkVMFig6_Pipeline_VM(b *testing.B)       { benchVMWordCount(b, true, true) }

// BenchmarkVMFig6_WordCount_Kernel is the same workload as the
// hand-written kernel compositions Figure 6's bars run, no interpreter at
// all.
func BenchmarkVMFig6_WordCount_Kernel(b *testing.B) {
	lines, _ := corpora()
	small := lines[:50]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wordcount.JuniconSequential(small, wordcount.Light, wordcount.EmbeddedConfig{})
	}
}

// BenchmarkVMFig6_WordCount_Translated is the same workload on the
// translator's output for Figure3Source (package wordcount/fig3): bound
// once, driven per iteration, as the VM lane evaluates per iteration.
func BenchmarkVMFig6_WordCount_Translated(b *testing.B) {
	lines, _ := corpora()
	wordcount.BindTranslated(lines[:50], wordcount.Light)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wordcount.TranslatedSum()
	}
}

// ---- multiplexed session benchmarks (Ablation L) ----
//
// benchMuxedLifecycle measures the full many-stream lifecycle: one
// iteration opens `streams` concurrent remote generators, drains a few
// values from each, and tears everything down. Streams are deliberately
// short — the session pool's economics live in the per-stream setup cost
// (dial, socket, handshake, read loop), so the benchmark models the
// many-short-streams storm that junistorm drives at scale; long streams
// amortize setup and converge toward the shared wire's throughput. Every
// stream goes through one pooled Dialer; streamsPerConn caps sharing
// (0 = DefaultStreamsPerConn), and cap 1 is one connection per stream —
// what a package-level remote.Open pays. The headline comparison is
// BenchmarkMuxedRemote_256 against BenchmarkMuxedRemoteStreamsPerConn_1:
// identical work, the pooled side paying 1 dial, 1 socket and 1 read loop
// where the other pays 256 of each. (The arm that dialed a pre-session
// connection per stream went with that transport; its last measurement is
// in EXPERIMENTS.md, Ablation L.)

var (
	muxBenchOnce sync.Once
	muxBenchAddr string
)

// muxBenchServer serves the mux benchmarks; unlike remoteBenchServer it
// lifts MaxConns, since the cap-1 arm needs hundreds of concurrent
// connections.
func muxBenchServer(b *testing.B) string {
	b.Helper()
	muxBenchOnce.Do(func() {
		s := remote.NewServer()
		s.MaxConns = 8192
		s.Register("range", func(args []value.V) (core.Gen, error) {
			lo := int64(value.MustInt(args[0]))
			hi := int64(value.MustInt(args[1]))
			return core.IntRange(lo, hi), nil
		})
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		muxBenchAddr = addr.String()
	})
	return muxBenchAddr
}

func benchMuxedLifecycle(b *testing.B, streams, streamsPerConn int) {
	addr := muxBenchServer(b)
	const vals = 5 // short streams: the lifecycle-storm workload junistorm models
	cfg := remote.Config{Buffer: 64}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		d := &remote.Dialer{StreamsPerConn: streamsPerConn}
		var wg sync.WaitGroup
		var short atomic.Int64
		for i := 0; i < streams; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				args := []value.V{value.NewInt(1), value.NewInt(int64(vals))}
				p := d.Open(addr, "range", args, cfg)
				defer p.Stop()
				for j := 0; j < vals; j++ {
					if _, ok := p.Next(); !ok {
						short.Add(1)
						return
					}
				}
			}()
		}
		wg.Wait()
		d.Close()
		if c := short.Load(); c != 0 {
			b.Fatalf("%d of %d streams ended early", c, streams)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(streams*vals)*float64(b.N)/b.Elapsed().Seconds(), "values/s")
}

// Shared sessions at the default cap.
func BenchmarkMuxedRemote_256(b *testing.B)  { benchMuxedLifecycle(b, 256, 0) }
func BenchmarkMuxedRemote_1024(b *testing.B) { benchMuxedLifecycle(b, 1024, 0) }

// The streams-per-conn sweep (Ablation L): 256 streams at caps 1, 16 and
// 4096. Cap 1 is the degenerate case — session framing with none of the
// sharing; cap 4096 collapses onto one connection exactly like the
// default 256.
func BenchmarkMuxedRemoteStreamsPerConn_1(b *testing.B)    { benchMuxedLifecycle(b, 256, 1) }
func BenchmarkMuxedRemoteStreamsPerConn_16(b *testing.B)   { benchMuxedLifecycle(b, 256, 16) }
func BenchmarkMuxedRemoteStreamsPerConn_4096(b *testing.B) { benchMuxedLifecycle(b, 256, 4096) }

// The single-stream case bounds what a session costs when there is
// nothing to share.
func BenchmarkMuxedRemoteSingle(b *testing.B) { benchMuxedLifecycle(b, 1, 0) }
