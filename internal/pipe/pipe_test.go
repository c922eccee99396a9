package pipe

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"junicon/internal/coexpr"
	"junicon/internal/core"
	"junicon/internal/value"
)

func intVal(v value.V) int64 {
	i, _ := value.ToInteger(v)
	n, _ := i.Int64()
	return n
}

func intsOf(vs []value.V) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = intVal(v)
	}
	return out
}

func TestPipeEquivalentToSequentialEvaluation(t *testing.T) {
	// |>e produces the same sequence as e, just in another thread.
	direct := core.Drain(core.IntRange(1, 50), 0)
	piped := core.Drain(FromGen(core.IntRange(1, 50), 8), 0)
	if len(direct) != len(piped) {
		t.Fatalf("lengths differ: %d vs %d", len(direct), len(piped))
	}
	for i := range direct {
		if intVal(direct[i]) != intVal(piped[i]) {
			t.Fatalf("at %d: %v vs %v", i, direct[i], piped[i])
		}
	}
}

func TestPropPipePreservesSequence(t *testing.T) {
	f := func(bs []byte, buf uint8) bool {
		if len(bs) > 40 {
			bs = bs[:40]
		}
		vs := make([]value.V, len(bs))
		for i, b := range bs {
			vs[i] = value.NewInt(int64(b))
		}
		p := FromGen(core.Values(vs...), int(buf%8)+1)
		got := core.Drain(p, 0)
		if len(got) != len(vs) {
			return false
		}
		for i := range got {
			if intVal(got[i]) != int64(bs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestProducerRunsConcurrently(t *testing.T) {
	// With a buffer of 4 the producer can run ahead of the consumer.
	var produced atomic.Int32
	g := core.NewGen(func(yield func(core.V) bool) {
		for i := 0; i < 4; i++ {
			produced.Add(1)
			if !yield(value.NewInt(int64(i))) {
				return
			}
		}
	})
	p := FromGen(g, 4)
	v, ok := p.Next()
	if !ok || intVal(v) != 0 {
		t.Fatalf("first = %v", v)
	}
	// Producer should fill the buffer without further Nexts.
	deadline := time.After(time.Second)
	for produced.Load() < 4 {
		select {
		case <-deadline:
			t.Fatalf("producer did not run ahead: produced=%d", produced.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	core.Drain(p, 0)
}

// TestBufferBoundThrottlesProducer pins the §3B throttle as runs leave it:
// never more than buffer values queued, plus the one the producer is
// blocked putting, plus what is left of one run in the consumer's hands —
// produced − delivered <= buffer + run at every Next, where run is
// min(buffer, cap). For buffer 1 that is the per-value pipe's bound of 2.
func TestBufferBoundThrottlesProducer(t *testing.T) {
	check := func(name string, buffer, run int, mk func(g core.Gen) *Pipe) {
		t.Run(name, func(t *testing.T) {
			var steps atomic.Int64
			p := mk(countingGen(&steps))
			defer p.Stop()
			bound := int64(buffer + run)
			// With no consumer at all: a full queue and one value in hand.
			p.StartEager()
			waitSteps(t, &steps, int64(buffer+1))
			for d := int64(1); d <= 1000; d++ {
				if v, ok := p.Next(); !ok || intVal(v) != d-1 {
					t.Fatalf("Next %d = %v %v", d, v, ok)
				}
				if ahead := steps.Load() - d; ahead > bound {
					t.Fatalf("after %d delivered the producer is %d ahead, bound %d", d, ahead, bound)
				}
				if d == 1 {
					// The bound is attained, so it is the bound: the first
					// refill found the queue full and took a whole run,
					// and the producer refilled the queue behind it.
					waitSteps(t, &steps, 1+bound)
				}
			}
		})
	}
	for _, buffer := range []int{1, 2, 8, 64} {
		for _, batch := range []int{1, 8, 64} {
			check(fmt.Sprintf("buffer=%d/cap=%d", buffer, batch), buffer, min(buffer, batch),
				func(g core.Gen) *Pipe { return FromGenBatched(g, buffer, batch) })
		}
	}
	check("buffer=8/uncapped", 8, 8, func(g core.Gen) *Pipe { return FromGen(g, 8) })
	check("buffer=1024/uncapped", 1024, maxRun, func(g core.Gen) *Pipe { return FromGen(g, 1024) })
}

func TestPipeOverCoExpressionShadowsEnvironment(t *testing.T) {
	x := value.NewCell(value.NewInt(5))
	c := coexpr.New([]value.V{x.Get()}, func(env []*value.Var) core.Gen {
		return core.Defer(func() core.Gen { return core.Unit(env[0].Get()) })
	})
	x.Set(value.NewInt(999)) // mutate after creation
	p := New(c, 1)
	v, ok := p.Next()
	if !ok || intVal(v) != 5 {
		t.Fatalf("pipe saw mutated local: %v", value.Image(v))
	}
	p.Stop()
}

func TestFirstActsAsFuture(t *testing.T) {
	p := FromGen(core.IntRange(42, 100), 1)
	v, ok := p.First()
	if !ok || intVal(v) != 42 {
		t.Fatalf("future = %v %v", v, ok)
	}
	// After First the pipe is stopped; Next fails.
	if _, ok := p.Next(); ok {
		t.Fatal("stopped pipe must fail")
	}
}

func TestFutureOfFailingExpression(t *testing.T) {
	p := FromGen(core.Empty(), 1)
	if _, ok := p.First(); ok {
		t.Fatal("future of failing expression must fail")
	}
}

func TestStopBeforeStart(t *testing.T) {
	p := FromGen(core.IntRange(1, 10), 4)
	p.Stop()
	if _, ok := p.Next(); ok {
		t.Fatal("Next after pre-start Stop must fail")
	}
}

func TestRestartRespawnsProducer(t *testing.T) {
	p := FromGen(core.IntRange(1, 3), 2)
	first := intsOf(core.Drain(p, 0))
	p.Restart()
	second := intsOf(core.Drain(p, 0))
	if len(first) != 3 || len(second) != 3 || second[0] != 1 {
		t.Fatalf("first=%v second=%v", first, second)
	}
}

func TestRefreshYieldsIndependentPipe(t *testing.T) {
	p := FromGen(core.IntRange(1, 5), 2)
	p.Next()
	p.Next()
	fresh := p.Refresh().(*Pipe)
	v, ok := fresh.Next()
	if !ok || intVal(v) != 1 {
		t.Fatalf("refreshed pipe should rewind: %v", value.Image(v))
	}
	fresh.Stop()
}

func TestStepperProtocolOnPipe(t *testing.T) {
	p := FromGen(core.IntRange(7, 9), 2)
	v, ok := core.Step(p, value.NullV)
	if !ok || intVal(v) != 7 {
		t.Fatalf("@pipe = %v", v)
	}
	rest := intsOf(core.Drain(core.Bang(p), 0))
	if len(rest) != 2 || rest[0] != 8 {
		t.Fatalf("!pipe = %v", rest)
	}
	if p.Size() != 3 {
		t.Fatalf("*pipe = %d", p.Size())
	}
	if p.Type() != "co-expression" {
		t.Fatalf("type = %s", p.Type())
	}
}

func TestOutExposesQueue(t *testing.T) {
	p := FromGen(core.IntRange(1, 2), 2)
	if p.Out() != nil {
		t.Fatal("queue should not exist before start")
	}
	p.Next()
	q := p.Out()
	if q == nil || q.Cap() != 2 {
		t.Fatalf("exposed queue: %v", q)
	}
	core.Drain(p, 0)
}

func TestParallelPipelineExpression(t *testing.T) {
	// x * !(|> factorial(!(|> sqrt-ish(y)))) — the paper's pipelining shape:
	// two stages chained with pipes, consumed by the surrounding expression.
	squares := core.Op1(func(v value.V) value.V { return value.Mul(v, v) }, core.IntRange(1, 5))
	stage2 := FromGen(squares, 2)
	plusOne := core.Op1(func(v value.V) value.V { return value.Add(v, value.NewInt(1)) }, core.Bang(stage2))
	final := FromGen(plusOne, 2)
	got := intsOf(core.Drain(final, 0))
	want := []int64{2, 5, 10, 17, 26}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pipeline = %v, want %v", got, want)
		}
	}
}

func TestChainHelper(t *testing.T) {
	doubled := func(in core.Gen) core.Gen {
		return core.Op1(func(v value.V) value.V { return value.Mul(v, value.NewInt(2)) }, in)
	}
	add10 := func(in core.Gen) core.Gen {
		return core.Op1(func(v value.V) value.V { return value.Add(v, value.NewInt(10)) }, in)
	}
	g := Chain(core.IntRange(1, 4), 2, doubled, add10)
	got := intsOf(core.Drain(g, 0))
	want := []int64{12, 14, 16, 18}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v", got)
		}
	}
}

func TestManyConcurrentPipes(t *testing.T) {
	// Stress: a fleet of pipes all producing concurrently.
	const n = 32
	pipes := make([]*Pipe, n)
	for i := range pipes {
		lo := int64(i * 10)
		pipes[i] = FromGen(core.IntRange(lo, lo+9), 3)
	}
	for i, p := range pipes {
		got := intsOf(core.Drain(p, 0))
		if len(got) != 10 || got[0] != int64(i*10) {
			t.Fatalf("pipe %d = %v", i, got)
		}
	}
}

func TestProducerErrorDoesNotCrashAndIsReported(t *testing.T) {
	// A runtime error inside the piped expression (1/0) fails the pipe
	// and surfaces through Err instead of crashing the process.
	bad := core.Op1(func(v value.V) value.V {
		return value.Div(v, value.NewInt(0))
	}, core.IntRange(1, 3))
	p := FromGen(bad, 2)
	if _, ok := p.Next(); ok {
		t.Fatal("pipe over erroring expression should fail")
	}
	err := p.Err()
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestProducerForeignPanicIsContained(t *testing.T) {
	g := core.NewGen(func(yield func(core.V) bool) {
		yield(value.NewInt(1))
		panic("boom")
	})
	p := FromGen(g, 1)
	v, ok := p.Next()
	if !ok || intVal(v) != 1 {
		t.Fatalf("first = %v %v", v, ok)
	}
	for {
		if _, ok := p.Next(); !ok {
			break
		}
	}
	if err := p.Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestHealthyPipeReportsNoError(t *testing.T) {
	p := FromGen(core.IntRange(1, 3), 2)
	core.Drain(p, 0)
	if err := p.Err(); err != nil {
		t.Fatalf("unexpected err: %v", err)
	}
}

func TestNoGoroutineLeakAfterStopAndDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		// Drained pipes: producer exits after closing the queue.
		core.Drain(FromGen(core.IntRange(1, 20), 4), 0)
		// Stopped pipes: producer blocked on a full queue must be released
		// by the close.
		p := FromGen(core.IntRange(1, 1000), 1)
		p.Next()
		p.Stop()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines before=%d after=%d: producer leak", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStopUnblocksProducerBlockedOnFullQueue is the regression test the
// remote server's stream cancellation relies on: a producer parked inside
// Put on a full queue must be released — not leaked — by Stop's close.
func TestStopUnblocksProducerBlockedOnFullQueue(t *testing.T) {
	before := runtime.NumGoroutine()
	var steps atomic.Int64
	p := FromGen(core.NewGen(func(yield func(value.V) bool) {
		for i := 0; ; i++ {
			steps.Add(1)
			if !yield(value.NewInt(int64(i))) {
				return
			}
		}
	}), 2)
	p.StartEager()

	// The producer fills the buffer (2) and blocks in Put with one value
	// in hand: exactly 3 steps, then it must make no further progress.
	deadline := time.Now().Add(2 * time.Second)
	for steps.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("producer took %d steps, never reached the full queue", steps.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := steps.Load(); got != 3 {
		t.Fatalf("producer took %d steps against a full buffer of 2, want exactly 3", got)
	}

	// Stop closes the queue; the blocked Put returns ErrClosed and the
	// producer goroutine exits without stepping the source again.
	p.Stop()
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines before=%d after=%d: Stop left the producer blocked",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := steps.Load(); got != 3 {
		t.Fatalf("producer stepped the source after Stop (%d steps)", got)
	}
	// Already-buffered values stay drainable after Stop, but the stream
	// must end — bounded by the buffer, never replenished.
	for i := 0; i < 3; i++ {
		if _, ok := p.Next(); !ok {
			return
		}
	}
	t.Fatal("stopped pipe kept producing past its buffered values")
}
