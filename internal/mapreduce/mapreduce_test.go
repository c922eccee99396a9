package mapreduce

import (
	"testing"
	"testing/quick"

	"junicon/internal/core"
	"junicon/internal/value"
)

func intVal(v value.V) int64 {
	i, _ := value.ToInteger(v)
	n, _ := i.Int64()
	return n
}

// sourceProc returns a generator function producing 1..n.
func sourceProc(n int64) *value.Proc {
	return value.NewProc("src", 0, func(...value.V) core.Gen { return core.IntRange(1, n) })
}

var square = core.ValProc("square", 1, func(a []value.V) value.V {
	return value.Mul(a[0], a[0])
})

var sum2 = core.ValProc("sum", 2, func(a []value.V) value.V {
	return value.Add(a[0], a[1])
})

func TestChunkPartitionsExactly(t *testing.T) {
	chunks := core.Drain(ChunkGen(core.IntRange(1, 10), 4), 0)
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	sizes := []int{4, 4, 2}
	total := int64(0)
	for i, c := range chunks {
		l := c.(*value.List)
		if l.Len() != sizes[i] {
			t.Fatalf("chunk %d size = %d, want %d", i, l.Len(), sizes[i])
		}
		for _, e := range l.Elems() {
			total += intVal(e)
		}
	}
	if total != 55 {
		t.Fatalf("element sum = %d", total)
	}
}

func TestChunkEvenPartition(t *testing.T) {
	chunks := core.Drain(ChunkGen(core.IntRange(1, 8), 4), 0)
	if len(chunks) != 2 {
		t.Fatalf("chunks = %d", len(chunks))
	}
}

func TestChunkEmptySource(t *testing.T) {
	if got := core.Drain(ChunkGen(core.Empty(), 4), 0); len(got) != 0 {
		t.Fatalf("chunks of empty = %v", got)
	}
}

func TestSpawnMapMapsChunkInPipe(t *testing.T) {
	chunk := value.NewList(value.NewInt(1), value.NewInt(2), value.NewInt(3))
	got := core.Drain(SpawnMap(square, chunk, 2), 0)
	want := []int64{1, 4, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if intVal(got[i]) != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestSpawnMapShadowsChunk(t *testing.T) {
	// Mutating the chunk after spawning must not affect the task (the
	// co-expression copied its environment).
	chunk := value.NewList(value.NewInt(1), value.NewInt(2))
	g := SpawnMap(square, chunk, 2)
	// NOTE: the environment shadowing copies the *reference* to the list
	// (Icon co-expressions copy variable bindings, not structures), so this
	// asserts the binding is captured — replacing our local binding has no
	// effect on the running task.
	chunk = value.NewList(value.NewInt(100))
	_ = chunk
	got := core.Drain(g, 0)
	if len(got) != 2 || intVal(got[0]) != 1 || intVal(got[1]) != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestMapReduceSumOfSquares(t *testing.T) {
	// sum of squares of 1..100 via per-chunk reduce then serial combine.
	dp := New(7)
	g := dp.MapReduce(square, sourceProc(100), sum2, value.NewInt(0))
	total := int64(0)
	nChunks := 0
	core.Each(g, func(v value.V) bool {
		total += intVal(v)
		nChunks++
		return true
	})
	if total != 338350 {
		t.Fatalf("sum of squares = %d, want 338350", total)
	}
	if want := (100 + 6) / 7; nChunks != want {
		t.Fatalf("per-chunk results = %d, want %d", nChunks, want)
	}
}

func TestMapReduceMatchesSequentialForManyShapes(t *testing.T) {
	f := func(n uint8, chunk uint8) bool {
		nn := int64(n%60) + 1
		cs := int(chunk%9) + 1
		dp := New(cs)
		g := dp.MapReduce(square, sourceProc(nn), sum2, value.NewInt(0))
		total := int64(0)
		core.Each(g, func(v value.V) bool { total += intVal(v); return true })
		want := int64(0)
		for i := int64(1); i <= nn; i++ {
			want += i * i
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMapFlatPreservesOrderAndSplitsReduction(t *testing.T) {
	dp := New(3)
	g := dp.MapFlat(square, sourceProc(10))
	got := core.Drain(g, 0)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		want := int64(i+1) * int64(i+1)
		if intVal(v) != want {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
}

func TestMapReduceEmptySource(t *testing.T) {
	dp := New(4)
	empty := value.NewProc("none", 0, func(...value.V) core.Gen { return core.Empty() })
	if got := core.Drain(dp.MapReduce(square, empty, sum2, value.NewInt(0)), 0); len(got) != 0 {
		t.Fatalf("results of empty source = %v", got)
	}
}

func TestMapReduceRestartable(t *testing.T) {
	dp := New(5)
	g := dp.MapReduce(square, sourceProc(10), sum2, value.NewInt(0))
	run := func() int64 {
		total := int64(0)
		core.Each(g, func(v value.V) bool { total += intVal(v); return true })
		return total
	}
	a, b := run(), run() // each cycle invokes the source and spawns its tasks afresh
	if a != 385 || b != 385 {
		t.Fatalf("runs = %d, %d; want 385", a, b)
	}
}

func TestTasksRunConcurrently(t *testing.T) {
	// All chunk tasks are spawned before any result is taken; with more
	// chunks than results consumed, consuming just the first per-chunk
	// result must not deadlock even though later pipes already ran.
	dp := New(2)
	g := dp.MapReduce(square, sourceProc(20), sum2, value.NewInt(0))
	v, ok := g.Next()
	if !ok {
		t.Fatal("no first result")
	}
	if intVal(v) != 1+4 {
		t.Fatalf("first chunk reduce = %v", intVal(v))
	}
	core.Drain(g, 0)
}
