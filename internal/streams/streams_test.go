package streams

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestFlatMapOrder(t *testing.T) {
	s := FlatMap(FromSlice([]string{"ab", "", "cd"}), func(s string) []string {
		out := make([]string, len(s))
		for i := range s {
			out[i] = s[i : i+1]
		}
		return out
	})
	got := Reduce(s, []string(nil), func(a []string, v string) []string { return append(a, v) })
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestReduce(t *testing.T) {
	sum := Reduce(FromSlice([]int{1, 2, 3, 4}), 0, func(a, v int) int { return a + v })
	if sum != 10 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestParallelMapReduceMatchesSequential(t *testing.T) {
	src := make([]int, 999)
	for i := range src {
		src[i] = i
	}
	f := func(v int) int { return v * v }
	seq := Reduce(FromSlice(src), 0, func(a, v int) int { return a + f(v) })
	par := ParallelMapReduce(FromSlice(src), ParallelConfig{Workers: 4, ChunkSize: 64},
		f, 0, func(a, v int) int { return a + v }, func(a, b int) int { return a + b })
	if seq != par {
		t.Fatalf("parallel %d != sequential %d", par, seq)
	}
}

func TestParallelMapPreservesOrder(t *testing.T) {
	src := make([]int, 500)
	for i := range src {
		src[i] = i
	}
	got := Reduce(ParallelMap(FromSlice(src), ParallelConfig{Workers: 8, ChunkSize: 7},
		func(v int) int { return v * 2 }), []int(nil), func(a []int, v int) []int { return append(a, v) })
	if len(got) != len(src) {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

func TestPropParallelEqualsSequential(t *testing.T) {
	f := func(xs []int16, chunk uint8, workers uint8) bool {
		src := make([]int, len(xs))
		for i, x := range xs {
			src[i] = int(x)
		}
		mapf := func(v int) int { return v*3 + 1 }
		seq := Reduce(FromSlice(src), 0, func(a, v int) int { return a + mapf(v) })
		par := ParallelMapReduce(FromSlice(src),
			ParallelConfig{Workers: int(workers%4) + 1, ChunkSize: int(chunk%16) + 1},
			mapf, 0, func(a, v int) int { return a + v }, func(a, b int) int { return a + b })
		return seq == par
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDroppedParallelMapShutsItsPoolDown: a ParallelMap stream read once
// and dropped shuts its pool down when it is collected, so its workers do
// not outlive it.
func TestDroppedParallelMapShutsItsPoolDown(t *testing.T) {
	src := make([]int, 10000)
	base := runtime.NumGoroutine()
	for range 5 {
		s := ParallelMap(FromSlice(src), ParallelConfig{Workers: 2}, func(v int) int { return v + 1 })
		if v, ok := s.next(); !ok || v != 1 {
			t.Fatalf("first value %d %v, want 1", v, ok)
		}
	}
	for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
		runtime.GC()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the streams were dropped, baseline %d", n, base)
	}
}
