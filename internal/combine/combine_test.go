package combine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gate is an underlying writer whose Writes block until released, and
// which records everything it was handed, Write by Write.
type gate struct {
	mu      sync.Mutex
	writes  [][]byte
	entered chan struct{} // one token per Write that has started
	release chan struct{} // one token lets one Write finish; close to open for good
	err     error
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 1<<16), release: make(chan struct{})}
}

func (g *gate) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return 0, g.err
	}
	g.writes = append(g.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (g *gate) all() []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return bytes.Join(g.writes, nil)
}

func wait(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: not within 5s", what)
	}
}

// TestLoneUnitIsWrittenAtOnce: a unit that finds the writer idle reaches
// the underlying writer with nothing after it to push it — no timer, no
// fill threshold.
func TestLoneUnitIsWrittenAtOnce(t *testing.T) {
	g := newGate()
	close(g.release)
	c := New(g, 1<<10)
	defer c.Close()
	if err := c.Append([]byte("listening"), []byte("\n")); err != nil {
		t.Fatal(err)
	}
	wait(t, "the lone unit's Write", g.entered)
}

// TestUnitsCoalesceBehindAnInFlightWrite: everything appended while one
// Write is in flight goes out together in the next, in append order, head
// and body adjacent.
func TestUnitsCoalesceBehindAnInFlightWrite(t *testing.T) {
	g := newGate()
	c := New(g, 1<<20)
	c.Append([]byte("first "), nil)
	wait(t, "first Write entered", g.entered)
	var want bytes.Buffer
	for i := 0; i < 100; i++ {
		head, body := fmt.Sprintf("<%d:", i), fmt.Sprintf("%d>", i*i)
		want.WriteString(head + body)
		if err := c.Append([]byte(head), []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	close(g.release)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if len(g.writes) != 2 {
		t.Fatalf("%d Writes, want 2 (the first unit, then everything behind it)", len(g.writes))
	}
	if got := string(g.writes[1]); got != want.String() {
		t.Fatalf("second Write carried %q, want %q", got, want.String())
	}
}

// TestConcurrentUnitsStayWholeAndOrdered: units from many goroutines are
// never interleaved, each goroutine's arrive in its own order, and Close
// returns only once all of them are written.
func TestConcurrentUnitsStayWholeAndOrdered(t *testing.T) {
	g := newGate()
	close(g.release)
	c := New(g, 1<<12) // small bound: appenders block and resume throughout
	const workers, each = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := fmt.Fprintf(c, "%d %d\n", w, i); err != nil {
					t.Errorf("worker %d unit %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	next := make([]int, workers)
	lines := bytes.Split(bytes.TrimSuffix(g.all(), []byte("\n")), []byte("\n"))
	for _, line := range lines {
		var w, i int
		if _, err := fmt.Sscanf(string(line), "%d %d", &w, &i); err != nil || w < 0 || w >= workers {
			t.Fatalf("torn unit %q", line)
		}
		if i != next[w] {
			t.Fatalf("worker %d: unit %d arrived where %d was due", w, i, next[w])
		}
		next[w]++
	}
	if len(lines) != workers*each {
		t.Fatalf("%d units written, want %d", len(lines), workers*each)
	}
}

// TestStalledWriterBlocksAppendersNotMemory: while the underlying writer
// does not return, appenders stall once max bytes are pending — pending
// never passes max plus one unit — and resume when it drains.
func TestStalledWriterBlocksAppendersNotMemory(t *testing.T) {
	const max, unit = 4 << 10, 100
	g := newGate()
	c := New(g, max)
	line := bytes.Repeat([]byte("x"), unit)
	var appended atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if c.Append(line, nil) != nil {
					return
				}
				appended.Add(1)
			}
		}()
	}
	wait(t, "first Write entered", g.entered)
	// The first Write took at least one unit and is stuck; everything else
	// must come to rest at the bound. Appenders are at rest when the count
	// stops moving; the bound must hold at every look.
	stable, last := 0, int64(-1)
	for deadline := time.Now().Add(5 * time.Second); stable < 20; {
		if time.Now().After(deadline) {
			t.Fatal("appenders never came to rest against a stalled writer")
		}
		c.mu.Lock()
		pending := len(c.pending)
		c.mu.Unlock()
		if pending >= max+unit {
			t.Fatalf("%d bytes pending behind a stalled writer, bound %d + one %d-byte unit", pending, max, unit)
		}
		if n := appended.Load(); n == last {
			stable++
		} else {
			stable, last = 0, n
		}
		time.Sleep(time.Millisecond)
	}
	if last >= 8*200 {
		t.Fatal("every append completed: the stalled writer stalled nobody")
	}
	close(g.release)
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(g.all()); got != 8*200*unit {
		t.Fatalf("%d bytes written after the stall cleared, want %d", got, 8*200*unit)
	}
}

// TestFailAndCloseSemantics: a write error poisons the writer and is what
// later Appends and Close report; Fail unblocks an appender stuck at the
// bound; Append after Close is ErrClosed.
func TestFailAndCloseSemantics(t *testing.T) {
	boom := errors.New("boom")
	g := newGate()
	g.err = boom
	close(g.release)
	c := New(g, 1<<10)
	c.Append([]byte("x"), nil)
	if err := c.Close(); err != boom {
		t.Fatalf("Close after a failed Write: %v, want %v", err, boom)
	}
	if err := c.Append([]byte("y"), nil); err != boom {
		t.Fatalf("Append after a failed Write: %v, want %v", err, boom)
	}

	g = newGate()
	c = New(g, 8)
	c.Append([]byte("0123456789"), nil)
	wait(t, "Write entered", g.entered)
	c.Append([]byte("0123456789"), nil) // pending is now over the bound
	stuck := make(chan error, 1)
	go func() { stuck <- c.Append([]byte("z"), nil) }()
	poison := errors.New("poison")
	c.Fail(poison)
	select {
	case err := <-stuck:
		if err != poison {
			t.Fatalf("blocked Append after Fail: %v, want %v", err, poison)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fail did not unblock an Append stuck at the bound")
	}
	close(g.release)

	g = newGate()
	close(g.release)
	c = New(g, 1<<10)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Append([]byte("late"), nil); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
}
