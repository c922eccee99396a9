// Package queue implements the blocking-queue substrate underneath
// generator proxies (§3B). The paper has one transport, "a blocking queue",
// and varies only its buffer size; so does this package — one queue,
// bounded or unbounded, both configurations of Blocking's
// ring-plus-condition core:
//
//   - n (NewArrayBlocking): a bounded buffer. A full ring parks Put, which
//     is how a pipe throttles its threaded co-expression ("bounding the
//     output queue buffer size can also be used to throttle"). 1 (NewMVar)
//     is the M-var of Concurrent Haskell and M-structure of Id, "whose put
//     and take operations wait until the channel is empty or full
//     respectively"; a pipe over one degenerates to a future.
//   - unbounded (NewLinkedBlocking): the ring grows instead of parking
//     Put, and gives the grown buffer back once it drains empty.
//
// Future, the single-assignment variable, is the one relative that is not a
// queue. Everything is built from sync.Mutex and sync.Cond rather than Go
// channels so that buffer bounding, fairness and close semantics are
// explicit, testable and benchmarkable — and so the pipe package can
// expose its transport "as a public field to permit further manipulation",
// as the paper requires.
package queue

import "errors"

// ErrClosed is returned by Put after Close, and by Take after Close once
// the queue has drained.
var ErrClosed = errors.New("queue: closed")

// Queue is the blocking-queue protocol: what Blocking implements and what
// lets a wrapper (semtest's SchedQueue) stand in for one.
//
// The batch operations move several elements per synchronization point:
// PutBatch and TakeBatch acquire the queue's internal lock once per call
// rather than once per element, which is what lets a pipe's consumer take
// a run of values for one queue handshake (the dominant cost of the §3B
// transport).
// Batching never weakens the protocol: elements stay FIFO, the buffer
// bound still throttles, and Close still drains before failing.
type Queue[T any] interface {
	// Put blocks until space is available, then enqueues v.
	Put(v T) error
	// Take blocks until an element is available, then dequeues it.
	Take() (T, error)
	// TryPut enqueues without blocking; ok reports success.
	TryPut(v T) (ok bool, err error)
	// TryTake dequeues without blocking; ok reports success.
	TryTake() (v T, ok bool, err error)
	// PutBatch enqueues the values of vs in order, blocking for space as
	// needed. n reports how many were delivered; n < len(vs) only when the
	// queue was closed mid-batch, in which case err is ErrClosed and the
	// first n values remain takeable (partial-batch delivery at Close).
	PutBatch(vs []T) (n int, err error)
	// TakeBatch blocks until at least one element is available, then
	// dequeues up to len(dst) elements into dst without further blocking.
	// After Close it drains the remaining elements batch by batch and then
	// fails with ErrClosed.
	TakeBatch(dst []T) (n int, err error)
	// Len returns the number of buffered elements.
	Len() int
	// Cap returns the buffer capacity; <= 0 means unbounded.
	Cap() int
	// Close marks the queue closed: subsequent Puts fail, Takes drain the
	// remaining elements and then fail. Close is idempotent.
	Close()
}
