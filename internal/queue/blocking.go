package queue

import "sync"

// minRing is the ring an unbounded queue starts with and gives its grown
// buffer back for once it drains empty.
const minRing = 64

// Blocking is the one blocking queue: a mutex, two conditions and a ring
// buffer. The constructors below configure its capacity — bounded (one
// slot is the M-var) or unbounded (see the package comment); every
// operation is written once, over the ring.
type Blocking[T any] struct {
	mu       sync.Mutex
	notFull  sync.Cond // putters: waiting for room
	notEmpty sync.Cond // takers
	buf      []T       // ring; its length is the bound unless grows
	head     int
	n        int
	grows    bool // unbounded: a full ring is reallocated, never waited on
	closed   bool
}

func newBlocking[T any](ring int, grows bool) *Blocking[T] {
	q := &Blocking[T]{buf: make([]T, ring), grows: grows}
	q.notFull.L = &q.mu
	q.notEmpty.L = &q.mu
	return q
}

// NewArrayBlocking returns a bounded blocking queue with the given capacity
// (minimum 1) — the analogue of java.util.concurrent.ArrayBlockingQueue.
func NewArrayBlocking[T any](capacity int) *Blocking[T] {
	return newBlocking[T](max(capacity, 1), false)
}

// NewLinkedBlocking returns an unbounded blocking queue, whose Put never
// blocks — the analogue of java.util.concurrent.LinkedBlockingQueue.
func NewLinkedBlocking[T any]() *Blocking[T] { return newBlocking[T](minRing, true) }

// NewMVar returns an empty single-slot queue. A pipe producing a single
// result through one behaves as a future.
func NewMVar[T any]() *Blocking[T] { return newBlocking[T](1, false) }

// Put blocks until space is available (never, when unbounded), then
// enqueues v.
func (q *Blocking[T]) Put(v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == len(q.buf) && !q.closed {
		if q.grows {
			q.grow(1)
		} else {
			q.notFull.Wait()
		}
	}
	if q.closed {
		return ErrClosed
	}
	q.enqueue(v)
	return nil
}

// Take blocks until an element is available; after Close it drains the
// buffer before reporting ErrClosed.
func (q *Blocking[T]) Take() (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.n == 0 {
		var zero T
		return zero, ErrClosed
	}
	v := q.dequeue()
	// One slot freed on a bounded queue wakes one putter — the whole fast
	// path; an unbounded one needs vacated's give-back.
	if q.grows {
		q.vacated()
	} else {
		q.notFull.Signal()
	}
	return v, nil
}

// TryPut enqueues without blocking.
func (q *Blocking[T]) TryPut(v T) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, ErrClosed
	}
	if q.n == len(q.buf) {
		if !q.grows {
			return false, nil
		}
		q.grow(1)
	}
	q.enqueue(v)
	return true, nil
}

// TryTake dequeues without blocking.
func (q *Blocking[T]) TryTake() (T, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		var zero T
		if q.closed {
			return zero, false, ErrClosed
		}
		return zero, false, nil
	}
	v := q.dequeue()
	if q.grows {
		q.vacated()
	} else {
		q.notFull.Signal()
	}
	return v, true, nil
}

// PutBatch enqueues vs in order, blocking for space as needed and waking
// takers once per run rather than once per element. Elements move in bulk
// segment copies, so the per-element cost is a memmove, not a lock.
func (q *Blocking[T]) PutBatch(vs []T) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	n := 0
	for n < len(vs) {
		for q.n == len(q.buf) && !q.closed {
			if q.grows {
				q.grow(len(vs) - n)
			} else {
				q.notFull.Wait()
			}
		}
		if q.closed {
			return n, ErrClosed
		}
		run := vs[n:min(len(vs), n+len(q.buf)-q.n)]
		tail := (q.head + q.n) % len(q.buf)
		c := copy(q.buf[tail:], run)
		copy(q.buf, run[c:])
		q.n += len(run)
		q.notEmpty.Broadcast()
		n += len(run)
	}
	return n, nil
}

// TakeBatch blocks until at least one element is available, then dequeues
// up to len(dst) without further blocking.
func (q *Blocking[T]) TakeBatch(dst []T) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.n == 0 {
		return 0, ErrClosed
	}
	return q.dequeueRun(dst), nil
}

// Len returns the number of buffered elements.
func (q *Blocking[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Cap returns the bound: 0 when unbounded.
func (q *Blocking[T]) Cap() int {
	if q.grows {
		return 0
	}
	return len(q.buf)
}

// Close marks the queue closed and wakes all waiters.
func (q *Blocking[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}

// enqueue appends v and wakes a taker. Caller holds mu and guarantees a free
// slot.
func (q *Blocking[T]) enqueue(v T) {
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	q.notEmpty.Signal()
}

// dequeue removes the head element. Caller holds mu, guarantees n > 0 and
// wakes the putter side (see Take).
func (q *Blocking[T]) dequeue() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release for GC
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// dequeueRun bulk-copies up to len(dst) elements out of the ring (at most
// two segment copies), clears the vacated slots for GC and wakes putters.
// Caller holds mu.
func (q *Blocking[T]) dequeueRun(dst []T) int {
	n := min(len(dst), q.n)
	if n == 0 {
		return 0
	}
	c := copy(dst[:n], q.buf[q.head:])
	copy(dst[c:n], q.buf)
	if end := q.head + n; end <= len(q.buf) {
		clear(q.buf[q.head:end])
	} else {
		clear(q.buf[q.head:])
		clear(q.buf[:end-len(q.buf)])
	}
	q.head = (q.head + n) % len(q.buf)
	q.n -= n
	q.vacated()
	return n
}

// vacated wakes the putter side after elements left the ring: every
// parked putter wakes, because a run frees room for more than one, and an
// unbounded ring that grew gives its buffer back once it drains empty, so
// a burst does not pin its high-water mark for the queue's lifetime.
// Caller holds mu.
func (q *Blocking[T]) vacated() {
	q.notFull.Broadcast()
	if q.grows && q.n == 0 && len(q.buf) > minRing {
		q.buf, q.head = make([]T, minRing), 0
	}
}

// grow reallocates a full unbounded ring to hold at least want more
// elements, unwrapping it so head is 0. Caller holds mu.
func (q *Blocking[T]) grow(want int) {
	buf := make([]T, max(2*len(q.buf), q.n+want))
	c := copy(buf, q.buf[q.head:])
	copy(buf[c:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
