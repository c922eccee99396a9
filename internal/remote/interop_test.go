package remote

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/value"
)

// Batching interop: a v3 (batching) client and a pre-batching server — and
// the reverse — must converge on a working stream with identical results,
// because the OPEN version negotiation (reject-and-redial downward) and the
// VALUES/VALUE frame split were designed so neither side needs to know the
// other's vintage in advance.

func wantRange(lo, hi int64) []int64 {
	var out []int64
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

func assertInts(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d (got=%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestInteropBatchingClientLegacyServer: a client advertising batches dials
// a server capped at protocol v2. The server rejects the v3 OPEN with the
// versioned message; the client must silently redial at v2 and stream
// per-value frames, with no error surfaced and no values lost.
func TestInteropBatchingClientLegacyServer(t *testing.T) {
	_, addr := startServer(t, func(s *Server) { s.MaxProtocol = 2 })
	cfg := testConfig() // Batch zero value: batching on (DefaultBatch)
	p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(200)}, cfg)
	defer p.Stop()
	var got []int64
	within(t, 5*time.Second, "drain via legacy server", func() {
		got = drainInts(t, p, 1000)
	})
	assertInts(t, got, wantRange(1, 200))
	if err := p.Err(); err != nil {
		t.Fatalf("downgrade surfaced as stream error: %v", err)
	}
	p.mu.Lock()
	noBatch, batch := p.noBatch, p.batch
	p.mu.Unlock()
	if !noBatch {
		t.Fatal("client did not record the downgrade")
	}
	if batch != 0 {
		t.Fatalf("redialed stream still advertises batch %d", batch)
	}
}

// TestInteropLegacyClientBatchingServer: a client with batching disabled
// (v2 OPEN) against a modern server gets plain per-value service.
func TestInteropLegacyClientBatchingServer(t *testing.T) {
	_, addr := startServer(t, nil)
	cfg := testConfig()
	cfg.Batch = -1
	p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(200)}, cfg)
	defer p.Stop()
	var got []int64
	within(t, 5*time.Second, "drain per-value", func() {
		got = drainInts(t, p, 1000)
	})
	assertInts(t, got, wantRange(1, 200))
	if err := p.Err(); err != nil {
		t.Fatalf("unexpected stream error: %v", err)
	}
}

// TestInteropDowngradeSurvivesRestart: the recorded downgrade must stick —
// Restart against the same legacy server reopens directly at v2 and
// re-serves the sequence from the start.
func TestInteropDowngradeSurvivesRestart(t *testing.T) {
	_, addr := startServer(t, func(s *Server) { s.MaxProtocol = 2 })
	p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(50)}, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "first drain", func() {
		assertInts(t, drainInts(t, p, 1000), wantRange(1, 50))
	})
	p.Restart()
	within(t, 5*time.Second, "drain after restart", func() {
		assertInts(t, drainInts(t, p, 1000), wantRange(1, 50))
	})
	if err := p.Err(); err != nil {
		t.Fatalf("restarted downgraded stream errored: %v", err)
	}
}

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

// Session interop: a pooled (v5) client and a pre-session server — and a
// classic client against a session-capable server — must converge exactly
// like the batching pair above: silent fallback, identical values, no
// stream-id bytes leaking into classic frames.

// TestInteropPooledClientLegacyServers runs a Dialer against servers
// capped at v4 (no sessions) and v2 (no sessions, no batching): the pipe
// must fall back to a dedicated classic connection, then keep negotiating
// downward from there as before.
func TestInteropPooledClientLegacyServers(t *testing.T) {
	for _, cap := range []int{4, 2} {
		t.Run(fmt.Sprintf("v%d", cap), func(t *testing.T) {
			_, addr := startServer(t, func(s *Server) { s.MaxProtocol = cap })
			d := &Dialer{}
			defer d.Close()
			p := d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(200)}, testConfig())
			defer p.Stop()
			var got []int64
			within(t, 5*time.Second, "drain via legacy server", func() {
				got = drainInts(t, p, 1000)
			})
			assertInts(t, got, wantRange(1, 200))
			if err := p.Err(); err != nil {
				t.Fatalf("fallback surfaced as stream error: %v", err)
			}
			if d.Sessions() != 0 {
				t.Fatalf("%d sessions against a v%d server, want 0", d.Sessions(), cap)
			}
			// A second stream must reuse the cached fallback without a
			// probing handshake failure showing anywhere.
			q := d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(5)}, testConfig())
			defer q.Stop()
			within(t, 5*time.Second, "second stream", func() {
				assertInts(t, drainInts(t, q, 100), wantRange(1, 5))
			})
			if q.Err() != nil {
				t.Fatalf("second fallback stream errored: %v", q.Err())
			}
		})
	}
}

// TestInteropClassicClientSessionServer: a plain Open (v4, no dialer)
// against a fully session-capable server takes the classic path — one
// connection, classic frames — and streams identically.
func TestInteropClassicClientSessionServer(t *testing.T) {
	srv, addr := startServer(t, nil)
	p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(200)}, testConfig())
	defer p.Stop()
	var got []int64
	within(t, 5*time.Second, "classic first value", func() {
		got = drainInts(t, p, 1)
	})
	// Counted while the stream is live: once it ends the client closes its
	// connection, and the server's count drops whenever it notices.
	if srv.ActiveConns() != 1 {
		t.Fatalf("conns = %d, want 1 dedicated", srv.ActiveConns())
	}
	within(t, 5*time.Second, "classic drain", func() {
		got = append(got, drainInts(t, p, 1000)...)
	})
	assertInts(t, got, wantRange(1, 200))
	if err := p.Err(); err != nil {
		t.Fatalf("classic stream against v5 server errored: %v", err)
	}
}
