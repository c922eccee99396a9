package remote

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/value"
)

// Batched delivery: VALUES frames and coalesced credit grants change how
// values travel, never which values arrive or how far the producer may run
// ahead.

// TestBatchedCreditBoundHolds: batching coalesces credit grants but must
// not widen the §3B window — the producer can never run more than
// Buffer values ahead of the credits the client has granted.
func TestBatchedCreditBoundHolds(t *testing.T) {
	var produced atomic.Int64
	_, addr := startServer(t, func(s *Server) {
		s.Register("count", func([]value.V) (core.Gen, error) {
			return core.NewGen(func(yield func(value.V) bool) {
				for i := 0; ; i++ {
					produced.Add(1)
					if !yield(value.NewInt(int64(i))) {
						return
					}
				}
			}), nil
		})
	})
	cfg := testConfig()
	cfg.Buffer = 3
	p := Open(addr, "count", nil, cfg)
	defer p.Stop()
	p.StartEager()
	deadline := time.Now().Add(2 * time.Second)
	for produced.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // would overrun here if unthrottled
	if n := produced.Load(); n != 3 {
		t.Fatalf("producer ran %d values ahead, credit window is 3", n)
	}
	// Consume the window plus one. The blocked fourth Next sends the
	// demand ping that returns the coalesced credits; the producer may
	// then run at most three further values ahead.
	within(t, 5*time.Second, "consume window+1", func() {
		for i := 0; i < 4; i++ {
			if _, ok := p.Next(); !ok {
				t.Errorf("Next %d failed: %v", i, p.Err())
				return
			}
		}
	})
	time.Sleep(50 * time.Millisecond)
	if n := produced.Load(); n > 6 {
		t.Fatalf("producer ran to %d after 4 takes with window 3 (bound is 6)", n)
	}
}

// TestBatchedStreamDeliversExactSequence runs a batched stream across
// buffer and batch sizes straddling the flush boundaries (batch > buffer
// forces flush-before-stall; batch 2 forces many fill-flushes; stream
// lengths ±1 around batch multiples exercise EOS-mid-batch).
func TestBatchedStreamDeliversExactSequence(t *testing.T) {
	_, addr := startServer(t, nil)
	for _, batch := range []int{2, 7, 64} {
		for _, buffer := range []int{1, 3, 64} {
			for _, n := range []int64{1, 63, 64, 65, 200} {
				name := fmt.Sprintf("batch=%d/buffer=%d/n=%d", batch, buffer, n)
				cfg := testConfig()
				cfg.Batch = batch
				cfg.Buffer = buffer
				p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(n)}, cfg)
				within(t, 10*time.Second, name, func() {
					assertInts(t, drainInts(t, p, 1000), wantRange(1, n))
				})
				if err := p.Err(); err != nil {
					t.Fatalf("%s: stream error: %v", name, err)
				}
				p.Stop()
			}
		}
	}
}

// TestBatchedProducerErrorAfterValues: values produced before a runtime
// error must all arrive before the ERR frame — the server flushes its
// pending run ahead of the terminal frame.
func TestBatchedProducerErrorAfterValues(t *testing.T) {
	_, addr := startServer(t, func(s *Server) {
		s.Register("boom3", func([]value.V) (core.Gen, error) {
			return core.NewGen(func(yield func(value.V) bool) {
				for i := int64(1); i <= 3; i++ {
					if !yield(value.NewInt(i)) {
						return
					}
				}
				value.Raise(value.ErrNumeric, "numeric expected", value.String("x"))
			}), nil
		})
	})
	p := Open(addr, "boom3", nil, testConfig())
	defer p.Stop()
	var got []int64
	within(t, 5*time.Second, "drain until error", func() {
		got = drainInts(t, p, 1000)
	})
	assertInts(t, got, wantRange(1, 3))
	if err := p.Err(); err == nil {
		t.Fatal("producer runtime error was not surfaced")
	}
}

// TestServedStreamShipsPartialRunOnDemand is why a served stream ships a
// run before it is full: with Buffer 64 and Batch 64 the generator yields
// one value and then blocks inside its next Next, holding credits it
// cannot use. The run will neither fill nor stall on credits, so only the
// client's demand ping — a CREDIT sent as its Next is about to block —
// ships the one value, and the client must get it while the generator is
// still blocked.
func TestServedStreamShipsPartialRunOnDemand(t *testing.T) {
	blocked, release := make(chan struct{}), make(chan struct{})
	var resumed atomic.Bool
	_, addr := startServer(t, func(s *Server) {
		s.Register("one-then-wait", func([]value.V) (core.Gen, error) {
			return core.NewGen(func(yield func(value.V) bool) {
				if !yield(value.NewInt(1)) {
					return
				}
				close(blocked)
				<-release
				resumed.Store(true)
				yield(value.NewInt(2))
			}), nil
		})
	})
	released := false
	defer func() {
		if !released {
			close(release) // let the server's producer finish before Close
		}
	}()
	p := Open(addr, "one-then-wait", nil, Config{Buffer: 64, Batch: 64})
	defer p.Stop()
	p.StartEager()
	within(t, 5*time.Second, "the generator blocking after its first value", func() { <-blocked })
	within(t, 5*time.Second, "first Next with the generator blocked", func() {
		assertInts(t, drainInts(t, p, 1), []int64{1})
	})
	if resumed.Load() {
		t.Fatal("the generator was released before the first value arrived")
	}
	close(release)
	released = true
	within(t, 5*time.Second, "the rest of the stream", func() {
		assertInts(t, drainInts(t, p, 10), []int64{2})
	})
	if err := p.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
}

// TestDemandPingOnAnEmptyRunIsKept: the demand ping can reach the server
// before the value it asks for exists. With Buffer 64 and Batch 64 the
// client's first Next sends its ping and blocks; only once the server has
// handled that ping (the hook after onCredit's ship) does the generator
// yield its one value, and then it blocks holding 63 credits. Nothing
// fills the run, stalls it or ends the stream, so the ping must be kept:
// the value ships the moment it is put, and the client gets it while the
// generator is still blocked.
func TestDemandPingOnAnEmptyRunIsKept(t *testing.T) {
	pinged, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookCreditShipped = func() { once.Do(func() { close(pinged) }) }
	// Cleanups run last in, first out: the server is gone before the hook.
	t.Cleanup(func() { testHookCreditShipped = nil })
	_, addr := startServer(t, func(s *Server) {
		s.Register("yield-after-ping", func([]value.V) (core.Gen, error) {
			return core.NewGen(func(yield func(value.V) bool) {
				<-pinged
				if !yield(value.NewInt(1)) {
					return
				}
				<-release
				yield(value.NewInt(2))
			}), nil
		})
	})
	released := false
	defer func() {
		if !released {
			close(release) // let the server's producer finish before Close
		}
	}()
	p := Open(addr, "yield-after-ping", nil, Config{Buffer: 64, Batch: 64})
	defer p.Stop()
	within(t, 5*time.Second, "first Next with the generator blocked", func() {
		assertInts(t, drainInts(t, p, 1), []int64{1})
	})
	close(release)
	released = true
	within(t, 5*time.Second, "the rest of the stream", func() {
		assertInts(t, drainInts(t, p, 10), []int64{2})
	})
	if err := p.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
}
