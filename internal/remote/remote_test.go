package remote

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/pipe"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// testConfig is a small credit window: eight values in flight.
func testConfig() Config { return Config{Buffer: 8} }

// testDialer keeps test sessions snappy: a small heartbeat, so liveness
// detection fires in milliseconds, not seconds. A package-level Open has
// no such knob — its private Dialer runs at the defaults — so a test that
// wants one stream per connection and a fast heartbeat asks for private.
func testDialer(private bool) *Dialer {
	d := &Dialer{Heartbeat: 25 * time.Millisecond, DialTimeout: time.Second}
	if private {
		d.StreamsPerConn, d.private = 1, true
	}
	return d
}

// startServer runs a server with the standard test registry on a loopback
// port and returns its address.
func startServer(t *testing.T, mutate func(*Server)) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Register("range", func(args []value.V) (core.Gen, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("range wants 2 args, got %d", len(args))
		}
		i := value.MustInt(args[0])
		j := value.MustInt(args[1])
		return core.IntRange(int64(i), int64(j)), nil
	})
	s.Register("fail", func(args []value.V) (core.Gen, error) {
		return core.Empty(), nil
	})
	s.Register("boom", func(args []value.V) (core.Gen, error) {
		return core.NewGen(func(yield func(value.V) bool) {
			yield(value.NewInt(1))
			value.Raise(value.ErrNumeric, "numeric expected", value.String("x"))
		}), nil
	})
	s.Register("panic", func(args []value.V) (core.Gen, error) {
		return core.NewGen(func(yield func(value.V) bool) {
			yield(value.NewInt(1))
			panic("foreign producer panic")
		}), nil
	})
	if mutate != nil {
		mutate(s)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

// within fails the test if f does not complete in d — the protocol's
// promise is "error, never hang", and these tests hold it to that.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not complete within %v", what, d)
	}
}

func drainInts(t *testing.T, g value.Gen, max int) []int64 {
	t.Helper()
	var out []int64
	for len(out) < max {
		v, ok := g.Next()
		if !ok {
			break
		}
		i, ok := value.ToInteger(value.Deref(v))
		if !ok {
			t.Fatalf("non-integer result %s", value.Image(v))
		}
		n, _ := i.Int64()
		out = append(out, n)
	}
	return out
}

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

func TestRemotePipeServesNamedGenerator(t *testing.T) {
	_, addr := startServer(t, nil)
	p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(5)}, testConfig())
	defer p.Stop()
	var got []int64
	within(t, 5*time.Second, "drain", func() { got = drainInts(t, p, 100) })
	assertInts(t, got, wantRange(1, 5))
	if err := p.Err(); err != nil {
		t.Fatalf("clean exhaustion must leave Err nil, got %v", err)
	}
}

func TestUnknownGeneratorSurfacesAsErr(t *testing.T) {
	_, addr := startServer(t, nil)
	p := Open(addr, "no-such", nil, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "next", func() {
		if _, ok := p.Next(); ok {
			t.Error("unknown generator produced a value")
		}
	})
	if _, ok := p.Err().(*RemoteError); !ok {
		t.Fatalf("want *RemoteError, got %v", p.Err())
	}
}

func TestProducerForeignPanicIsContained(t *testing.T) {
	s, addr := startServer(t, nil)
	p := Open(addr, "panic", nil, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "drain", func() {
		drainInts(t, p, 100)
	})
	if _, ok := p.Err().(*RemoteError); !ok {
		t.Fatalf("want *RemoteError from contained panic, got %v", p.Err())
	}
	// The daemon survives: a fresh stream still works.
	p2 := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(2)}, testConfig())
	defer p2.Stop()
	within(t, 5*time.Second, "fresh stream", func() {
		if got := drainInts(t, p2, 10); len(got) != 2 {
			t.Errorf("fresh stream got %v", got)
		}
	})
	_ = s
}

func TestCreditThrottlesRemoteProducer(t *testing.T) {
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
	cfg.Batch = -1 // this test asserts the per-value ACK clock: one Next,
	// one CREDIT(1), one more production. Batched streams coalesce grants
	// (the bound still holds); their throttle is TestBatchedCreditBoundHolds.
	p := Open(addr, "count", nil, cfg)
	defer p.Stop()
	p.StartEager()
	// The producer may run exactly `credit` values ahead, then must stall.
	deadline := time.Now().Add(2 * time.Second)
	for produced.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // would overrun here if unthrottled
	if n := produced.Load(); n != 3 {
		t.Fatalf("producer ran %d values ahead, credit window is 3", n)
	}
	// Consuming one value grants one credit: exactly one more production.
	within(t, 5*time.Second, "next", func() { p.Next() })
	deadline = time.Now().Add(2 * time.Second)
	for produced.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if n := produced.Load(); n != 4 {
		t.Fatalf("after one Next, produced = %d, want 4", n)
	}
}

func TestRemotePipeComposesWithKernel(t *testing.T) {
	_, addr := startServer(t, nil)
	// limit: take 3 of an infinite-ish remote stream.
	p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(1000)}, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "limit", func() {
		got := core.Drain(core.Limit(core.Bang(p), 3), 100)
		if len(got) != 3 {
			t.Errorf("limit 3 over remote pipe yielded %d values", len(got))
		}
	})
	// alternation: remote | local.
	q := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(2)}, testConfig())
	defer q.Stop()
	within(t, 5*time.Second, "alternation", func() {
		got := core.Drain(core.Alt(core.Bang(q), core.Values(value.NewInt(9))), 100)
		if len(got) != 3 {
			t.Errorf("remote|local yielded %d values, want 3", len(got))
		}
	})
	// product: a remote pipe must behave exactly as a local pipe.Pipe in
	// the same position — a pipe is a hot stream (§3B), so the inner
	// operand yields one pass and is then exhausted; parity with the
	// in-process transport is the contract.
	local := core.Drain(core.Product(
		core.Values(value.NewInt(1), value.NewInt(2)),
		core.Bang(pipe.New(core.NewFirstClass(core.IntRange(1, 3)), 8)),
	), 100)
	a := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(3)}, testConfig())
	defer a.Stop()
	within(t, 5*time.Second, "product", func() {
		got := core.Drain(core.Product(
			core.Values(value.NewInt(1), value.NewInt(2)),
			core.Bang(a),
		), 100)
		if len(got) != len(local) {
			t.Errorf("product over remote pipe yielded %d values, local pipe yields %d", len(got), len(local))
		}
	})
}

func TestRefreshYieldsIndependentRemotePipe(t *testing.T) {
	_, addr := startServer(t, nil)
	p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(3)}, testConfig())
	defer p.Stop()
	within(t, 10*time.Second, "refresh", func() {
		drainInts(t, p, 1)
		q := p.Refresh().(*RemotePipe)
		defer q.Stop()
		got := drainInts(t, q, 100)
		if len(got) != 3 || got[0] != 1 {
			t.Errorf("refreshed pipe got %v", got)
		}
	})
}

func TestSourceStreamIsServedAndVetted(t *testing.T) {
	_, addr := startServer(t, func(s *Server) { s.AllowSource = true })
	// A healthy source stream: squares of 1..4.
	p := OpenSource(addr, "", "(1 to 4) ^ 2", nil, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "source drain", func() {
		got := drainInts(t, p, 100)
		want := []int64{1, 4, 9, 16}
		if len(got) != len(want) {
			t.Fatalf("got %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	})
	// A program with declarations, plus args transmission.
	q := OpenSource(addr,
		"procedure double(x)\n  return x * 2\nend",
		"double(!args)",
		[]value.V{value.NewInt(10), value.NewInt(20)}, testConfig())
	defer q.Stop()
	within(t, 5*time.Second, "program drain", func() {
		got := drainInts(t, q, 100)
		if len(got) != 2 || got[0] != 20 || got[1] != 40 {
			t.Fatalf("got %v, want [20 40]", got)
		}
	})
}

func TestSourceStreamVetRejection(t *testing.T) {
	_, addr := startServer(t, func(s *Server) { s.AllowSource = true })
	// Activating an integer literal is a JV error: the vet gate must
	// refuse it before any evaluation.
	p := OpenSource(addr, "", "@42", nil, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "vet rejection", func() {
		if _, ok := p.Next(); ok {
			t.Error("statically wrong source was served")
		}
	})
	re, ok := p.Err().(*RemoteError)
	if !ok {
		t.Fatalf("want *RemoteError, got %v", p.Err())
	}
	if re.Msg == "" {
		t.Fatal("vet rejection carried no diagnostics")
	}
}

func TestSourceDisabledByDefault(t *testing.T) {
	_, addr := startServer(t, nil)
	p := OpenSource(addr, "", "1 to 3", nil, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "refusal", func() {
		if _, ok := p.Next(); ok {
			t.Error("source stream served despite AllowSource=false")
		}
	})
	if _, ok := p.Err().(*RemoteError); !ok {
		t.Fatalf("want *RemoteError, got %v", p.Err())
	}
}

func TestConnectionLimit(t *testing.T) {
	var blockers []*RemotePipe
	_, addr := startServer(t, func(s *Server) {
		s.MaxConns = 2
		s.Register("hold", func([]value.V) (core.Gen, error) {
			return core.RepeatAlt(core.Unit(value.NewInt(1))), nil
		})
	})
	defer func() {
		for _, p := range blockers {
			p.Stop()
		}
	}()
	for i := 0; i < 2; i++ {
		p := Open(addr, "hold", nil, testConfig())
		p.StartEager()
		within(t, 5*time.Second, "held stream", func() { p.Next() })
		blockers = append(blockers, p)
	}
	over := Open(addr, "hold", nil, testConfig())
	defer over.Stop()
	within(t, 5*time.Second, "over-limit refusal", func() {
		if _, ok := over.Next(); ok {
			t.Error("over-limit connection was served")
		}
	})
	if _, ok := over.Err().(*RemoteError); !ok {
		t.Fatalf("want *RemoteError refusal, got %v", over.Err())
	}
}

// TestUnencodableArgumentsFailFirstNext: an argument vector the codec
// refuses (here a list that contains itself) must not be sent as "no
// arguments". The pipe keeps the marshal error, fails its first Next with
// it, and dials nothing.
func TestUnencodableArgumentsFailFirstNext(t *testing.T) {
	var calls atomic.Int64
	srv, addr := startServer(t, func(s *Server) {
		s.Register("g", func([]value.V) (core.Gen, error) {
			calls.Add(1)
			return core.Empty(), nil
		})
	})
	cyclic := value.NewList()
	cyclic.Put(cyclic)
	d := &Dialer{}
	defer d.Close()
	for name, open := range constructors(d) {
		p := open(addr, "g", []value.V{cyclic}, testConfig())
		if _, ok := p.Next(); ok {
			t.Fatalf("%s: a pipe with unencodable arguments produced a value", name)
		}
		if err := p.Err(); !errors.Is(err, wire.ErrTooDeep) || !strings.Contains(err.Error(), "arguments") {
			t.Fatalf("%s: Err = %v, want the argument encoding error", name, err)
		}
		p.Stop()
	}
	if calls.Load() != 0 || srv.Served() != 0 || d.Sessions() != 0 {
		t.Fatalf("g ran %d times over %d streams and %d sessions; nothing should have been dialed",
			calls.Load(), srv.Served(), d.Sessions())
	}
}

func TestStopBeforeStart(t *testing.T) {
	p := Open("127.0.0.1:1", "range", nil, testConfig())
	p.Stop()
	if _, ok := p.Next(); ok {
		t.Fatal("stopped pipe produced a value")
	}
}

func TestDialFailureSurfacesAsError(t *testing.T) {
	// A port with nothing listening: grab one, close it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	p := Open(addr, "range", nil, testConfig())
	within(t, 5*time.Second, "dial failure", func() {
		if _, ok := p.Next(); ok {
			t.Error("unreachable server produced a value")
		}
	})
	if p.Err() == nil {
		t.Fatal("dial failure left Err nil")
	}
}
