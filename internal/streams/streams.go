// Package streams is the native comparison substrate: a sequential and
// parallel stream library in the style of java.util.stream, against which
// the embedded concurrent generators are benchmarked (§VII). Parallel
// execution uses the chunked map-reduce decomposition of Figure 2 — "fixed
// data": partition the source, run all stages over each chunk on a worker
// pool, and merge chunk results in order (the generator formulation
// "enforces ordering between the results of the partitioned threads", §3B;
// the native substrate matches it so the two suites compute identical
// sequences).
package streams

import (
	"runtime"

	"junicon/internal/pool"
	"junicon/internal/queue"
)

// Stream is a lazily-evaluated pipeline over elements of type T. Streams
// are single-use: a terminal operation consumes the source.
type Stream[T any] struct {
	next func() (T, bool)
}

// FromSlice streams the elements of s without copying.
func FromSlice[T any](s []T) *Stream[T] {
	i := 0
	return &Stream[T]{next: func() (T, bool) {
		if i >= len(s) {
			var zero T
			return zero, false
		}
		v := s[i]
		i++
		return v, true
	}}
}

// FlatMap expands each element into a sub-stream, concatenated in order.
func FlatMap[T, U any](s *Stream[T], f func(T) []U) *Stream[U] {
	var cur []U
	i := 0
	return &Stream[U]{next: func() (U, bool) {
		for {
			if i < len(cur) {
				v := cur[i]
				i++
				return v, true
			}
			e, ok := s.next()
			if !ok {
				var zero U
				return zero, false
			}
			cur, i = f(e), 0
		}
	}}
}

// ForEach consumes the stream, applying f to each element.
func (s *Stream[T]) ForEach(f func(T)) {
	for {
		v, ok := s.next()
		if !ok {
			return
		}
		f(v)
	}
}

// Reduce folds the stream left-to-right from init.
func Reduce[T, A any](s *Stream[T], init A, f func(A, T) A) A {
	acc := init
	s.ForEach(func(v T) { acc = f(acc, v) })
	return acc
}

// ParallelConfig controls chunked parallel execution.
type ParallelConfig struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// ChunkSize is the partition size; <= 0 selects 1024.
	ChunkSize int
	// Window bounds the number of in-flight chunk tasks; <= 0 selects 2×
	// Workers. The source is consumed incrementally as tasks retire, so
	// memory stays O(Window·ChunkSize) rather than O(source).
	Window int
}

func (c ParallelConfig) chunk() int {
	if c.ChunkSize <= 0 {
		return 1024
	}
	return c.ChunkSize
}

func (c ParallelConfig) window(workers int) int {
	if c.Window > 0 {
		return c.Window
	}
	return 2 * workers
}

// chunkWindow streams the results of work over src's chunks, in chunk
// order: chunks are pulled from src into recycled backing slices and
// submitted to a pool as one task each, with at most cfg.Window tasks in
// flight, so the source is read only as results are taken. A chunk slice
// is recycled once its task's future has resolved — the worker no longer
// touches it after that — and the pool is shut down when the stream is
// exhausted (or a task panics), or when a stream dropped before then is
// collected. It is the one partition, pool and ordered-merge schedule of
// the parallel terminals.
func chunkWindow[T, R any](src *Stream[T], cfg ParallelConfig, work func(chunk []T) R) *Stream[R] {
	size := cfg.chunk()
	p := pool.New(cfg.Workers)
	limit := cfg.window(p.Size())
	type task struct {
		fut   *queue.Future[R]
		chunk []T
	}
	var inflight []task
	var free [][]T
	srcDone := false
	var dropped runtime.Cleanup
	s := &Stream[R]{next: func() (R, bool) {
		for !srcDone && len(inflight) < limit {
			var buf []T
			if n := len(free); n > 0 {
				buf, free = free[n-1], free[:n-1]
			} else {
				buf = make([]T, 0, size)
			}
			for len(buf) < size {
				v, ok := src.next()
				if !ok {
					srcDone = true
					break
				}
				buf = append(buf, v)
			}
			if len(buf) == 0 {
				break
			}
			fut := pool.Submit(p, func() (R, error) { return work(buf), nil })
			inflight = append(inflight, task{fut: fut, chunk: buf})
		}
		if len(inflight) == 0 {
			dropped.Stop()
			p.Shutdown()
			var zero R
			return zero, false
		}
		t := inflight[0]
		n := copy(inflight, inflight[1:])
		inflight[n] = task{}
		inflight = inflight[:n]
		r, err := t.fut.Get()
		if err != nil {
			dropped.Stop()
			p.Shutdown()
			panic(err) // tasks here cannot fail except by program bug
		}
		clear(t.chunk)
		free = append(free, t.chunk[:0])
		return r, true
	}}
	dropped = runtime.AddCleanup(s, (*pool.Pool).Shutdown, p)
	return s
}

// ParallelMapReduce is the parallel-stream map-reduce: partition the source
// into chunks, map f over each chunk and reduce the chunk with (init, r) on
// a worker pool, then combine per-chunk results in order with the same r.
// It is the native counterpart of Figure 4's mapReduce. Chunks are pulled
// from the source as earlier tasks complete (a sliding window of
// cfg.Window tasks), and chunk backing slices are recycled across the run.
func ParallelMapReduce[T, U, A any](src *Stream[T], cfg ParallelConfig, f func(T) U, init A, r func(A, U) A, combine func(A, A) A) A {
	partials := chunkWindow(src, cfg, func(ch []T) A {
		acc := init
		for _, v := range ch {
			acc = r(acc, f(v))
		}
		return acc
	})
	return Reduce(partials, init, combine)
}

// ParallelMap is the data-parallel variant that "splits out the reduction":
// chunks are mapped in parallel but the combined results are returned as a
// single ordered stream for serial downstream reduction (§VII's
// data-parallel word-count). Like ParallelMapReduce it runs a sliding
// window of chunk tasks, so results stream while the source is still being
// read and an abandoned stream never consumes more than one window.
func ParallelMap[T, U any](src *Stream[T], cfg ParallelConfig, f func(T) U) *Stream[U] {
	mapped := chunkWindow(src, cfg, func(ch []T) []U {
		out := make([]U, len(ch))
		for k, v := range ch {
			out[k] = f(v)
		}
		return out
	})
	return FlatMap(mapped, func(out []U) []U { return out })
}
