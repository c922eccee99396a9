package streams

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestMapFilterLimit(t *testing.T) {
	got := Map(FromSlice([]int{1, 2, 3, 4, 5, 6}).Filter(func(v int) bool { return v%2 == 0 }),
		func(v int) string { return strconv.Itoa(v * 10) }).Limit(2).Collect()
	if len(got) != 2 || got[0] != "20" || got[1] != "40" {
		t.Fatalf("got %v", got)
	}
}

func TestFlatMapOrder(t *testing.T) {
	got := FlatMap(FromSlice([]string{"ab", "", "cd"}), func(s string) []string {
		out := make([]string, len(s))
		for i := range s {
			out[i] = s[i : i+1]
		}
		return out
	}).Collect()
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

func TestGenerateAndCount(t *testing.T) {
	i := 0
	s := &Stream[int]{next: func() (int, bool) {
		if i >= 7 {
			return 0, false
		}
		i++
		return i, true
	}}
	if n := s.Count(); n != 7 {
		t.Fatalf("count = %d", n)
	}
}

func TestPeekSeesAllElements(t *testing.T) {
	var seen []int
	FromSlice([]int{1, 2, 3}).Peek(func(v int) { seen = append(seen, v) }).Collect()
	if len(seen) != 3 {
		t.Fatalf("peek saw %v", seen)
	}
}

func TestChunks(t *testing.T) {
	cs := FromSlice([]int{1, 2, 3, 4, 5}).Chunks(2)
	if len(cs) != 3 || len(cs[0]) != 2 || len(cs[2]) != 1 {
		t.Fatalf("chunks = %v", cs)
	}
	if got := FromSlice([]int(nil)).Chunks(3); len(got) != 0 {
		t.Fatalf("empty chunks = %v", got)
	}
}

func TestParallelMapReduceMatchesSequential(t *testing.T) {
	src := make([]int, 999)
	for i := range src {
		src[i] = i
	}
	f := func(v int) int { return v * v }
	seq := Reduce(Map(FromSlice(src), f), 0, func(a, v int) int { return a + v })
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
	got := ParallelMap(FromSlice(src), ParallelConfig{Workers: 8, ChunkSize: 7},
		func(v int) int { return v * 2 }).Collect()
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
		seq := Reduce(Map(FromSlice(src), mapf), 0, func(a, v int) int { return a + v })
		par := ParallelMapReduce(FromSlice(src),
			ParallelConfig{Workers: int(workers%4) + 1, ChunkSize: int(chunk%16) + 1},
			mapf, 0, func(a, v int) int { return a + v }, func(a, b int) int { return a + b })
		return seq == par
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLimitShortCircuitsInfiniteStream(t *testing.T) {
	n := 0
	inf := &Stream[int]{next: func() (int, bool) { n++; return n, true }}
	got := inf.Limit(5).Collect()
	if len(got) != 5 || got[4] != 5 {
		t.Fatalf("got %v", got)
	}
}
