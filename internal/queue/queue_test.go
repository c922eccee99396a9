package queue

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// compile-time interface check
var _ Queue[int] = (*Blocking[int])(nil)

// each bounded/unbounded implementation under a name for table tests.
func implementations() map[string]func() Queue[int] {
	return map[string]func() Queue[int]{
		"array-1":    func() Queue[int] { return NewArrayBlocking[int](1) },
		"array-8":    func() Queue[int] { return NewArrayBlocking[int](8) },
		"linked-inf": func() Queue[int] { return NewLinkedBlocking[int]() },
		"mvar":       func() Queue[int] { return NewMVar[int]() },
	}
}

func TestFIFOOrderSingleThreaded(t *testing.T) {
	for name, mk := range implementations() {
		if name == "mvar" || name == "array-1" {
			continue // no room for 4 buffered elements
		}
		q := mk()
		for i := 1; i <= 4; i++ {
			if ok, err := q.TryPut(i); !ok || err != nil {
				t.Fatalf("%s: TryPut(%d) = %v %v", name, i, ok, err)
			}
		}
		for i := 1; i <= 4; i++ {
			v, ok, err := q.TryTake()
			if !ok || err != nil || v != i {
				t.Fatalf("%s: TryTake = %v %v %v, want %d", name, v, ok, err, i)
			}
		}
	}
}

func TestProducerConsumerNoLossNoDup(t *testing.T) {
	const n = 2000
	for name, mk := range implementations() {
		q := mk()
		got := make([]bool, n)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := q.Put(i); err != nil {
					t.Errorf("%s: Put: %v", name, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				v, err := q.Take()
				if err != nil {
					t.Errorf("%s: Take: %v", name, err)
					return
				}
				if v < 0 || v >= n || got[v] {
					t.Errorf("%s: duplicate or out-of-range %d", name, v)
					return
				}
				got[v] = true
			}
		}()
		wg.Wait()
		for i, seen := range got {
			if !seen {
				t.Fatalf("%s: lost element %d", name, i)
			}
		}
	}
}

func TestFIFOAcrossThreads(t *testing.T) {
	// With a single producer and single consumer every implementation is
	// order-preserving.
	for name, mk := range implementations() {
		q := mk()
		const n = 500
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < n; i++ {
				v, err := q.Take()
				if err != nil || v != i {
					t.Errorf("%s: got %d err %v, want %d", name, v, err, i)
					return
				}
			}
		}()
		for i := 0; i < n; i++ {
			if err := q.Put(i); err != nil {
				t.Fatalf("%s: put: %v", name, err)
			}
		}
		<-done
	}
}

func TestBoundedPutBlocksUntilTake(t *testing.T) {
	q := NewArrayBlocking[int](1)
	if err := q.Put(1); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		close(started)
		q.Put(2) // must block: buffer full
		close(finished)
	}()
	<-started
	select {
	case <-finished:
		t.Fatal("Put on full queue did not block")
	case <-time.After(20 * time.Millisecond):
	}
	if v, err := q.Take(); err != nil || v != 1 {
		t.Fatalf("take = %v %v", v, err)
	}
	select {
	case <-finished:
	case <-time.After(time.Second):
		t.Fatal("blocked Put never completed after Take")
	}
}

func TestTakeBlocksUntilPut(t *testing.T) {
	for name, mk := range implementations() {
		q := mk()
		got := make(chan int, 1)
		go func() {
			v, err := q.Take()
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			got <- v
		}()
		select {
		case <-got:
			t.Fatalf("%s: Take on empty queue returned early", name)
		case <-time.After(10 * time.Millisecond):
		}
		if err := q.Put(7); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		select {
		case v := <-got:
			if v != 7 {
				t.Fatalf("%s: got %d", name, v)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: Take never woke", name)
		}
	}
}

func TestCloseDrainsThenFails(t *testing.T) {
	q := NewArrayBlocking[int](4)
	q.Put(1)
	q.Put(2)
	q.Close()
	//junilint:ignore — this test IS the Put-after-Close contract.
	if err := q.Put(3); err != ErrClosed {
		t.Fatalf("Put after close = %v", err)
	}
	if v, err := q.Take(); err != nil || v != 1 {
		t.Fatalf("drain 1: %v %v", v, err)
	}
	if v, err := q.Take(); err != nil || v != 2 {
		t.Fatalf("drain 2: %v %v", v, err)
	}
	if _, err := q.Take(); err != ErrClosed {
		t.Fatalf("Take after drain = %v", err)
	}
}

func TestCloseWakesBlockedWaiters(t *testing.T) {
	for name, mk := range implementations() {
		q := mk()
		errs := make(chan error, 2)
		go func() {
			_, err := q.Take()
			errs <- err
		}()
		time.Sleep(5 * time.Millisecond)
		q.Close()
		select {
		case err := <-errs:
			if err != ErrClosed {
				t.Fatalf("%s: woke with %v", name, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: blocked Take not woken by Close", name)
		}
	}
}

func TestClosedPutWhileBlockedReturnsErrClosed(t *testing.T) {
	q := NewArrayBlocking[int](1)
	q.Put(1)
	errs := make(chan error, 1)
	go func() { errs <- q.Put(2) }()
	time.Sleep(5 * time.Millisecond)
	q.Close()
	select {
	case err := <-errs:
		if err != ErrClosed {
			t.Fatalf("blocked Put woke with %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked Put not woken")
	}
}

func TestTryOpsDoNotBlock(t *testing.T) {
	q := NewArrayBlocking[int](1)
	if _, ok, err := q.TryTake(); ok || err != nil {
		t.Fatal("TryTake on empty should report !ok")
	}
	if ok, _ := q.TryPut(1); !ok {
		t.Fatal("TryPut should succeed")
	}
	if ok, _ := q.TryPut(2); ok {
		t.Fatal("TryPut on full should report !ok")
	}
	if v, ok, _ := q.TryTake(); !ok || v != 1 {
		t.Fatal("TryTake should succeed")
	}
}

func TestMVarSemantics(t *testing.T) {
	m := NewMVar[string]()
	if ok, _ := m.TryPut("a"); !ok {
		t.Fatal("fill empty mvar")
	}
	if ok, _ := m.TryPut("b"); ok {
		t.Fatal("mvar must reject second put while full")
	}
	if v, err := m.Take(); err != nil || v != "a" {
		t.Fatal("take")
	}
	if _, ok, _ := m.TryTake(); ok {
		t.Fatal("empty mvar must not yield")
	}
}

func TestFutureSingleAssignment(t *testing.T) {
	f := NewFuture[int]()
	if f.done {
		t.Fatal("new future must be undefined")
	}
	results := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			v, _ := f.Get()
			results <- v
		}()
	}
	if !f.Set(42) {
		t.Fatal("first Set must win")
	}
	if f.Set(43) {
		t.Fatal("second Set must lose")
	}
	for i := 0; i < 3; i++ {
		if v := <-results; v != 42 {
			t.Fatalf("reader saw %d", v)
		}
	}
	if v, err := f.Get(); err != nil || v != 42 {
		t.Fatal("Get after set")
	}
}

func TestFutureFail(t *testing.T) {
	f := NewFuture[int]()
	f.Fail(ErrClosed)
	if _, err := f.Get(); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
}

func TestManyProducersManyConsumers(t *testing.T) {
	const producers, perProducer = 8, 250
	q := NewArrayBlocking[int](4)
	var wg sync.WaitGroup
	sum := make(chan int, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Put(1)
			}
		}(p)
	}
	for c := 0; c < producers; c++ {
		go func() {
			local := 0
			for {
				_, err := q.Take()
				if err != nil {
					sum <- local
					return
				}
				local++
			}
		}()
	}
	wg.Wait()
	q.Close()
	total := 0
	for c := 0; c < producers; c++ {
		total += <-sum
	}
	if total != producers*perProducer {
		t.Fatalf("consumed %d, want %d", total, producers*perProducer)
	}
}

func TestPropRingBufferMatchesModel(t *testing.T) {
	// Drive each capacity with a random op sequence against a model slice,
	// single-threaded. room is how many elements TryPut may have buffered:
	// the bound, or no limit when unbounded.
	rows := map[string]struct {
		mk   func(capn int) Queue[int]
		room func(capn int) int
	}{
		"array":     {func(c int) Queue[int] { return NewArrayBlocking[int](c) }, func(c int) int { return c }},
		"unbounded": {func(int) Queue[int] { return NewLinkedBlocking[int]() }, func(int) int { return math.MaxInt }},
		"mvar":      {func(int) Queue[int] { return NewMVar[int]() }, func(int) int { return 1 }},
	}
	for name, row := range rows {
		t.Run(name, func(t *testing.T) {
			f := func(ops []byte, capacity uint8) bool {
				capn := int(capacity%7) + 1
				q := row.mk(capn)
				var model []int
				next := 0
				for _, op := range ops {
					if op%2 == 0 {
						ok, _ := q.TryPut(next)
						wantOK := len(model) < row.room(capn)
						if ok != wantOK {
							return false
						}
						if ok {
							model = append(model, next)
						}
						next++
					} else {
						v, ok, _ := q.TryTake()
						wantOK := len(model) > 0
						if ok != wantOK {
							return false
						}
						if ok {
							if v != model[0] {
								return false
							}
							model = model[1:]
						}
					}
					if q.Len() != len(model) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUnboundedGrowsAcrossWrapAndGivesBack: an unbounded ring that fills
// with head != 0 must unwrap as it grows — FIFO holds across the old seam,
// whether the overfill arrives by Put or as one PutBatch — and once it
// drains empty the grown buffer goes back, so a burst does not pin its
// high-water mark.
func TestUnboundedGrowsAcrossWrapAndGivesBack(t *testing.T) {
	overfill := map[string]func(t *testing.T, q *Blocking[int], vs []int){
		"Put": func(t *testing.T, q *Blocking[int], vs []int) {
			for _, v := range vs {
				if err := q.Put(v); err != nil {
					t.Fatalf("Put(%d): %v", v, err)
				}
			}
		},
		"PutBatch": func(t *testing.T, q *Blocking[int], vs []int) {
			if n, err := q.PutBatch(vs); n != len(vs) || err != nil {
				t.Fatalf("PutBatch = %d %v", n, err)
			}
		},
	}
	for name, put := range overfill {
		t.Run(name, func(t *testing.T) {
			q := NewLinkedBlocking[int]()
			seq := make([]int, 4*minRing)
			for i := range seq {
				seq[i] = i
			}
			put(t, q, seq[:minRing]) // exactly full
			for want := 0; want < minRing/2; want++ {
				if v, err := q.Take(); err != nil || v != want {
					t.Fatalf("Take = %d %v, want %d", v, err, want)
				}
			}
			put(t, q, seq[minRing:]) // wraps, then outgrows the ring with head mid-buffer
			if len(q.buf) <= minRing {
				t.Fatalf("ring did not grow: len %d holding %d", len(q.buf), q.Len())
			}
			for want := minRing / 2; want < len(seq); want++ {
				if v, ok, err := q.TryTake(); !ok || err != nil || v != want {
					t.Fatalf("TryTake = %d %v %v, want %d", v, ok, err, want)
				}
			}
			if len(q.buf) != minRing {
				t.Fatalf("drained ring kept %d slots, want %d given back", len(q.buf), minRing)
			}
			put(t, q, seq[:1]) // and it still works
			if v, err := q.Take(); err != nil || v != 0 {
				t.Fatalf("Take after give-back = %d %v", v, err)
			}
		})
	}
}

func TestCapReporting(t *testing.T) {
	if NewArrayBlocking[int](5).Cap() != 5 {
		t.Fatal("array cap")
	}
	if NewLinkedBlocking[int]().Cap() != 0 {
		t.Fatal("unbounded cap")
	}
	if NewMVar[int]().Cap() != 1 {
		t.Fatal("mvar cap")
	}
}

func TestCloseIdempotent(t *testing.T) {
	for name, mk := range implementations() {
		q := mk()
		q.Close()
		q.Close() // must not panic or deadlock
		_ = name
	}
}

// Concurrent Put/Close stress: the close/poison semantics the remote
// protocol's EOS handling sits on. Invariant: every Put that returned nil
// deposited a value some Take retrieves; every Put after close returns
// ErrClosed; nothing deadlocks.
func TestConcurrentPutCloseStress(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				q := mk()
				const producers = 8
				var accepted, taken int64
				var wg sync.WaitGroup
				for id := 0; id < producers; id++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						for i := 0; i < 50; i++ {
							err := q.Put(id*1000 + i)
							if err != nil {
								if err != ErrClosed {
									t.Errorf("Put: %v, want nil or ErrClosed", err)
								}
								return
							}
							atomic.AddInt64(&accepted, 1)
						}
					}(id)
				}
				consumerDone := make(chan struct{})
				go func() {
					defer close(consumerDone)
					for {
						if _, err := q.Take(); err != nil {
							if err != ErrClosed {
								t.Errorf("Take: %v, want ErrClosed", err)
							}
							return
						}
						atomic.AddInt64(&taken, 1)
					}
				}()
				time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
				q.Close()
				waitOrFatal(t, &wg, "producers blocked after Close")
				select {
				case <-consumerDone:
				case <-time.After(5 * time.Second):
					t.Fatal("consumer blocked after Close")
				}
				if a, k := atomic.LoadInt64(&accepted), atomic.LoadInt64(&taken); a != k {
					t.Fatalf("round %d: %d Puts accepted but %d values taken", round, a, k)
				}
			}
		})
	}
}

// TestCloseReleasesManyBlockedProducers parks a crowd of producers on a
// full queue and closes it: all must return promptly with ErrClosed, and
// the drain must retrieve exactly the accepted values.
func TestCloseReleasesManyBlockedProducers(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			const producers = 16
			var accepted int64
			var wg sync.WaitGroup
			for id := 0; id < producers; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for {
						if err := q.Put(id); err != nil {
							if err != ErrClosed {
								t.Errorf("Put: %v, want ErrClosed", err)
							}
							return
						}
						atomic.AddInt64(&accepted, 1)
					}
				}(id)
			}
			// Let the crowd saturate the queue, then poison it.
			for q.Len() < q.Cap() && q.Cap() > 0 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(5 * time.Millisecond)
			q.Close()
			waitOrFatal(t, &wg, "blocked producers not released by Close")
			var taken int64
			for {
				if _, err := q.Take(); err != nil {
					break
				}
				taken++
			}
			if a := atomic.LoadInt64(&accepted); a != taken {
				t.Fatalf("%d Puts accepted but %d values drained", a, taken)
			}
		})
	}
}

// TestConcurrentCloseIsSafe races multiple Close calls against active
// Put/Take traffic: no panic, and the queue ends closed.
func TestConcurrentCloseIsSafe(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(3)
				go func(i int) { defer wg.Done(); q.Put(i) }(i)
				go func() { defer wg.Done(); q.Take() }()
				go func() { defer wg.Done(); q.Close() }()
			}
			waitOrFatal(t, &wg, "Close raced with Put/Take deadlocked")
			if err := q.Put(1); err != ErrClosed {
				t.Fatalf("Put after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// waitOrFatal guards a WaitGroup wait with a timeout so a poison-semantics
// regression shows as a failure, not a hung test binary.
func waitOrFatal(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal(what)
	}
}
