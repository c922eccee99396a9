package remote

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/telemetry"
	"junicon/internal/value"
)

// TestMuxedManyStreamsShareOneConn is the pool's contract: many
// pipes opened through one Dialer ride one TCP connection, each
// delivering its exact sequence.
func TestMuxedManyStreamsShareOneConn(t *testing.T) {
	srv, addr := startServer(t, nil)
	d := &Dialer{}
	defer d.Close()

	const n = 32
	pipes := make([]*RemotePipe, n)
	for i := range pipes {
		pipes[i] = d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(20)}, testConfig())
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, p := range pipes {
		wg.Add(1)
		go func(i int, p *RemotePipe) {
			defer wg.Done()
			defer p.Stop()
			got := drainInts(t, p, 100)
			if len(got) != 20 {
				errs[i] = fmt.Errorf("stream %d: got %d values, want 20", i, len(got))
				return
			}
			for j, v := range got {
				if v != int64(j+1) {
					errs[i] = fmt.Errorf("stream %d: value %d is %d, want %d", i, j, v, j+1)
					return
				}
			}
			errs[i] = p.Err()
		}(i, p)
	}
	within(t, 15*time.Second, "drain all muxed streams", wg.Wait)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Sessions(); got != 1 {
		t.Fatalf("dialer sessions = %d, want 1 (all streams share one conn)", got)
	}
	if got := srv.ActiveConns(); got != 1 {
		t.Fatalf("server conns = %d, want 1", got)
	}
}

// TestMuxedStreamErrorLeavesSiblings: a producer error on one logical
// stream must fail only that stream; its session siblings drain clean.
func TestMuxedStreamErrorLeavesSiblings(t *testing.T) {
	_, addr := startServer(t, nil)
	d := &Dialer{}
	defer d.Close()

	sib := d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(200)}, testConfig())
	defer sib.Stop()
	bad := d.Open(addr, "boom", nil, testConfig())
	defer bad.Stop()

	// Interleave: a few sibling values, then drive the bad stream to its
	// runtime error, then finish the sibling on the same session.
	got := drainInts(t, sib, 5)
	within(t, 5*time.Second, "bad stream", func() { drainInts(t, bad, 100) })
	if bad.Err() == nil {
		t.Fatal("boom stream must surface its runtime error")
	}
	within(t, 10*time.Second, "sibling drain", func() {
		got = append(got, drainInts(t, sib, 500)...)
	})
	if sib.Err() != nil {
		t.Fatalf("sibling poisoned by neighbor's error: %v", sib.Err())
	}
	if len(got) != 200 || got[0] != 1 || got[199] != 200 {
		t.Fatalf("sibling sequence corrupted: %d values, ends %v", len(got), got[max(0, len(got)-3):])
	}
	if d.Sessions() != 1 {
		t.Fatalf("sessions = %d, want the one shared conn", d.Sessions())
	}
}

// TestMuxedRefusedOpenLeavesSiblings: a refused OPEN (unknown generator)
// on a session answers ERR on that stream id only.
func TestMuxedRefusedOpenLeavesSiblings(t *testing.T) {
	_, addr := startServer(t, nil)
	d := &Dialer{}
	defer d.Close()

	sib := d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(30)}, testConfig())
	defer sib.Stop()
	drainInts(t, sib, 3)

	nope := d.Open(addr, "no-such-generator", nil, testConfig())
	defer nope.Stop()
	within(t, 5*time.Second, "refused stream", func() { drainInts(t, nope, 10) })
	if nope.Err() == nil || !strings.Contains(nope.Err().Error(), "unknown generator") {
		t.Fatalf("want unknown-generator refusal, got %v", nope.Err())
	}
	var rest []int64
	within(t, 5*time.Second, "sibling drain", func() { rest = drainInts(t, sib, 100) })
	if sib.Err() != nil || len(rest) != 27 {
		t.Fatalf("sibling hurt by refusal: err=%v rest=%d", sib.Err(), len(rest))
	}
}

// TestMuxedPoolGrowsAtCap: with StreamsPerConn=4, eight concurrent
// streams need exactly two sessions.
func TestMuxedPoolGrowsAtCap(t *testing.T) {
	srv, addr := startServer(t, nil)
	d := &Dialer{StreamsPerConn: 4}
	defer d.Close()

	const n = 8
	pipes := make([]*RemotePipe, n)
	for i := range pipes {
		// Large range: streams stay live until we finish counting.
		pipes[i] = d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(1 << 20)}, testConfig())
		if _, ok := pipes[i].Next(); !ok {
			t.Fatalf("stream %d refused: %v", i, pipes[i].Err())
		}
	}
	if got := d.Sessions(); got != 2 {
		t.Fatalf("sessions = %d for 8 streams at cap 4, want 2", got)
	}
	if got := srv.ActiveConns(); got != 2 {
		t.Fatalf("server conns = %d, want 2", got)
	}
	for _, p := range pipes {
		p.Stop()
	}
}

// TestMuxedKillConnRecoversAllStreams: severing the shared connection
// fails every stream on it; with Recover on, each redials (onto a fresh
// session) and replays to its exact suffix.
func TestMuxedKillConnRecoversAllStreams(t *testing.T) {
	_, addr := startServer(t, nil)
	d := &Dialer{}
	defer d.Close()
	cfg := testConfig()
	cfg.Recover = true
	cfg.RecoverWait = 5 * time.Second

	const n = 4
	pipes := make([]*RemotePipe, n)
	parts := make([][]int64, n)
	for i := range pipes {
		pipes[i] = d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(40)}, cfg)
		parts[i] = drainInts(t, pipes[i], 7)
	}
	pipes[0].KillConn() // kills the shared conn: every sibling loses it too

	var wg sync.WaitGroup
	for i := range pipes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = append(parts[i], drainInts(t, pipes[i], 100)...)
		}(i)
	}
	within(t, 15*time.Second, "recovery drain", wg.Wait)
	for i, p := range pipes {
		if p.Err() != nil {
			t.Fatalf("stream %d err after recovery: %v", i, p.Err())
		}
		if len(parts[i]) != 40 {
			t.Fatalf("stream %d: %d values after recovery, want 40", i, len(parts[i]))
		}
		for j, v := range parts[i] {
			if v != int64(j+1) {
				t.Fatalf("stream %d: value %d is %d after recovery, want %d", i, j, v, j+1)
			}
		}
		p.Stop()
	}
}

// TestMuxedStopClosesOneStreamNotConn: stopping one pipe mid-stream
// must not tear down the session its siblings use.
func TestMuxedStopClosesOneStreamNotConn(t *testing.T) {
	srv, addr := startServer(t, nil)
	d := &Dialer{}
	defer d.Close()

	a := d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(1 << 20)}, testConfig())
	b := d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(50)}, testConfig())
	drainInts(t, a, 3)
	drainInts(t, b, 3)
	a.Stop()

	var rest []int64
	within(t, 5*time.Second, "sibling after Stop", func() { rest = drainInts(t, b, 100) })
	if b.Err() != nil || len(rest) != 47 {
		t.Fatalf("sibling hurt by Stop: err=%v rest=%d", b.Err(), len(rest))
	}
	b.Stop()
	if got := srv.ActiveConns(); got != 1 {
		t.Fatalf("server conns = %d, want the session still up", got)
	}
}

// TestMuxedDeadlineLeavesSiblings: a Config.Deadline expiry on a muxed
// pipe closes that stream, not the shared connection.
func TestMuxedDeadlineLeavesSiblings(t *testing.T) {
	release := make(chan struct{})
	_, addr := startServer(t, func(s *Server) {
		s.Register("stall", func(args []value.V) (core.Gen, error) {
			return core.NewGen(func(yield func(value.V) bool) {
				yield(value.NewInt(1))
				<-release // hold the producer until test teardown
			}), nil
		})
	})
	// Registered after startServer: cleanups run LIFO, so the producer is
	// released before Server.Close waits for it.
	t.Cleanup(func() { close(release) })
	d := &Dialer{}
	defer d.Close()

	sib := d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(60)}, testConfig())
	defer sib.Stop()
	drainInts(t, sib, 2)

	cfg := testConfig()
	cfg.Deadline = 100 * time.Millisecond
	slow := d.Open(addr, "stall", nil, cfg)
	defer slow.Stop()
	within(t, 5*time.Second, "timeout stream", func() { drainInts(t, slow, 10) })
	if slow.Err() == nil {
		t.Fatal("stalled stream must time out")
	}
	var rest []int64
	within(t, 5*time.Second, "sibling drain", func() { rest = drainInts(t, sib, 100) })
	if sib.Err() != nil || len(rest) != 58 {
		t.Fatalf("sibling hurt by neighbor timeout: err=%v rest=%d", sib.Err(), len(rest))
	}
}

// TestSessionGaugeIsLive: remote.mux.sessions is a view of the live session
// count, so a session opened while metrics were off is counted the moment
// they come on — not left at the stale copy of the last open or close.
func TestSessionGaugeIsLive(t *testing.T) {
	telemetry.SetMetrics(false)
	sessions := func() int64 { return telemetry.Snapshot()["remote.mux.sessions"].(int64) }
	base := sessions()
	conn, peer := net.Pipe()
	defer peer.Close()
	s := newSession(conn, &clientRole, nil, 0)
	telemetry.SetMetrics(true)
	defer telemetry.SetMetrics(false)
	if got := sessions(); got != base+1 {
		t.Fatalf("remote.mux.sessions = %d with one session open, want %d", got, base+1)
	}
	s.Close()
	if got := sessions(); got != base {
		t.Fatalf("remote.mux.sessions = %d after it closed, want %d", got, base)
	}
}
