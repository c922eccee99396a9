// Package combine is the swap-buffer writer behind both the session
// transport's send side (internal/remote's muxIO) and junicond's logger:
// many goroutines append units — frames, log lines — to one bounded pending
// buffer, and a single writer goroutine swaps out whatever has gathered and
// hands it to the underlying writer in one Write. No timer: a unit that
// finds the writer idle goes out alone and at once; units that arrive while
// a Write is in flight ride the next one together, in append order.
package combine

import (
	"errors"
	"io"
	"sync"
)

// ErrClosed is what Append reports after Close.
var ErrClosed = errors.New("combine: writer closed")

// Writer coalesces appends into single Writes on the underlying writer.
type Writer struct {
	w    io.Writer
	max  int
	done chan struct{} // writer goroutine exited

	mu      sync.Mutex
	work    sync.Cond // units pending
	space   sync.Cond // pending shrank below the bound
	pending []byte
	spare   []byte // recycled swap buffer
	err     error
	closed  bool
}

// New starts a writer over w. Append blocks while max or more bytes are
// pending — w is not draining, so everything feeding it stalls together
// instead of growing memory, exactly as a full pipe or socket would stall
// a direct writer. (One unit may overshoot the bound by its own length.)
func New(w io.Writer, max int) *Writer {
	c := &Writer{w: w, max: max, done: make(chan struct{})}
	c.work.L = &c.mu
	c.space.L = &c.mu
	go c.run()
	return c
}

// Append queues head followed by body as one unit: the two reach w
// adjacent and in the same Write.
func (c *Writer) Append(head, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.pending) >= c.max && c.err == nil && !c.closed {
		c.space.Wait()
	}
	if c.err != nil {
		return c.err
	}
	if c.closed {
		return ErrClosed
	}
	c.pending = append(append(c.pending, head...), body...)
	c.work.Signal()
	return nil
}

// Write queues p as one unit, making the writer an io.Writer for callers
// (log/slog handlers) that emit one whole record per call.
func (c *Writer) Write(p []byte) (int, error) {
	if err := c.Append(p, nil); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *Writer) run() {
	defer close(c.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.pending) == 0 && c.err == nil && !c.closed {
			c.work.Wait()
		}
		if c.err != nil || len(c.pending) == 0 {
			return
		}
		batch := c.pending
		c.pending, c.spare = c.spare[:0], nil
		c.space.Broadcast()
		c.mu.Unlock()
		_, werr := c.w.Write(batch)
		c.mu.Lock()
		if cap(batch) <= c.max {
			c.spare = batch[:0]
		}
		if werr != nil && c.err == nil {
			c.err = werr
			c.space.Broadcast()
		}
	}
}

// Fail poisons the writer: blocked and later Appends return err, pending
// units are dropped. A Write already in flight is the caller's to unblock
// (closing the connection under it).
func (c *Writer) Fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.work.Broadcast()
	c.space.Broadcast()
	c.mu.Unlock()
}

// Close refuses further Appends, waits until everything already pending
// has been handed to w, and reports the error that poisoned the writer, if
// any.
func (c *Writer) Close() error {
	c.mu.Lock()
	c.closed = true
	c.work.Broadcast()
	c.space.Broadcast()
	c.mu.Unlock()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
