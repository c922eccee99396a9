package remote

import (
	"net"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/value"
)

// TestWatchdogConnBackpressure: a session peer that stops reading wedges
// the shared writer in its socket write; the watchdog must name the new
// cause on the session handle. This is the stall shape none of the older
// causes cover — credits are plentiful and the consumer is "present",
// but the connection itself is the bottleneck, and every stream on it
// stalls together.
func TestWatchdogConnBackpressure(t *testing.T) {
	inspect.Reset()
	inspect.Enable()
	t.Cleanup(func() {
		inspect.Disable()
		inspect.Reset()
	})
	// Shrink the shared writer's pending bound so the wedge needs only the
	// socket buffers' worth of unread data, not 8MB.
	oldPending := sessionPendingMax
	sessionPendingMax = 64 << 10
	t.Cleanup(func() { sessionPendingMax = oldPending })

	_, addr := startServer(t, func(s *Server) {
		s.Register("flood", func(args []value.V) (core.Gen, error) {
			return core.IntRange(1, 1<<40), nil
		})
	})

	// A raw peer: complete the session handshake, open one stream with
	// an enormous credit window, then never read another byte. The server
	// producer free-runs into the shared writer until the TCP buffers and
	// the pending bound fill.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	rawSession(t, conn)
	open := &openReq{mode: openNamed, name: "flood", credit: 1 << 30, batch: 64, stream: 78}
	if _, err := conn.Write(appendMuxFrame(nil, frameOpen, 1, open.marshal())); err != nil {
		t.Fatalf("stream open: %v", err)
	}

	w := inspect.StartWatchdog(inspect.WatchdogConfig{
		Period:    time.Hour, // manual Scan only
		Threshold: 50 * time.Millisecond,
	})
	t.Cleanup(w.Stop)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, d := range w.Scan() {
			if d.Cause == inspect.CauseConnBackpressure {
				if d.Kind != inspect.KindSession {
					t.Fatalf("conn-backpressure on kind %q, want session", d.Kind)
				}
				// The group view must surface the same diagnosis keyed by
				// the connection, so /debug/streams tells the story at a
				// glance.
				groups := inspect.ConnGroups(inspect.Snapshot())
				for _, g := range groups {
					if g.Diagnosis == inspect.CauseConnBackpressure {
						return
					}
				}
				t.Fatalf("no conn group carries the diagnosis: %+v", groups)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no conn-backpressure diagnosis; have %+v", inspect.Diagnoses())
}
