package queue

import "sync"

// Future is a single-assignment synchronization variable in the style of
// CML: reads block until the value is defined, and it may be defined only
// once. Set after the first Set is a no-op reporting false.
type Future[T any] struct {
	mu   sync.Mutex
	cond sync.Cond
	v    T
	err  error
	done bool
}

// NewFuture returns an undefined future.
func NewFuture[T any]() *Future[T] {
	f := &Future[T]{}
	f.cond.L = &f.mu
	return f
}

// Set defines the future's value; only the first call wins.
func (f *Future[T]) Set(v T) bool { return f.complete(v, nil) }

// Fail defines the future with an error.
func (f *Future[T]) Fail(err error) bool {
	var zero T
	return f.complete(zero, err)
}

func (f *Future[T]) complete(v T, err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return false
	}
	f.v, f.err, f.done = v, err, true
	f.cond.Broadcast()
	return true
}

// Get blocks until the future is defined.
func (f *Future[T]) Get() (T, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.done {
		f.cond.Wait()
	}
	return f.v, f.err
}
