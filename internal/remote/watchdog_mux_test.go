package remote

import (
	"net"
	"strings"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/value"
)

// TestWatchdogConnBackpressure: a session peer that stops reading wedges
// the shared writer in its socket write; the watchdog must name the new
// cause on the session record and on a stream stuck behind it. This is the
// stall shape none of the older causes cover — the consumer is "present",
// but the connection itself is the bottleneck, and every stream on it
// stalls together. A peer whose session OPEN carries no connection ID (one
// that observes nothing) must be diagnosed the same way.
func TestWatchdogConnBackpressure(t *testing.T) {
	t.Run("conn-id", func(t *testing.T) { connBackpressure(t, 99) })
	t.Run("no-conn-id", func(t *testing.T) { connBackpressure(t, 0) })
}

func connBackpressure(t *testing.T, connID uint64) {
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

	// A raw peer: complete the session handshake, then never read a byte.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	hello := &openReq{mode: openMux, credit: 16, stream: connID}
	if err := writeFrame(conn, frameOpen, hello.marshal()); err != nil {
		t.Fatalf("handshake write: %v", err)
	}
	if typ, _, err := readFrame(conn); err != nil || typ != frameHello {
		t.Fatalf("handshake reply: typ=%#x err=%v", typ, err)
	}
	openStream := func(sid uint32, open *openReq) {
		t.Helper()
		if _, err := conn.Write(appendMuxFrame(nil, frameOpen, sid, open.marshal())); err != nil {
			t.Fatalf("stream open: %v", err)
		}
	}
	// First a stream that spends its small window and waits for credit,
	// then one with an enormous window whose producer free-runs into the
	// shared writer until the TCP buffers and the pending bound fill.
	openStream(1, &openReq{mode: openNamed, name: "flood", credit: 8, batch: 1, stream: 77})
	starved := func() (inspect.StreamInfo, bool) {
		for _, in := range inspect.Snapshot() {
			if in.ID == inspect.StreamID(77) && in.Kind == inspect.KindRemoteServer {
				return in, true
			}
		}
		return inspect.StreamInfo{}, false
	}
	eventually(t, "the first stream waits for credit", func() bool {
		in, ok := starved()
		return ok && in.State == "blocked-put" && in.Produced == 8
	})
	openStream(2, &openReq{mode: openNamed, name: "flood", credit: 1 << 30, batch: 64, stream: 78})

	w := inspect.StartWatchdog(inspect.WatchdogConfig{
		Period:    time.Hour, // manual Scan only
		Threshold: 50 * time.Millisecond,
	})
	t.Cleanup(w.Stop)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		causes := map[string]string{}
		for _, d := range w.Scan() {
			causes[d.Kind] = d.Cause
		}
		if causes[inspect.KindSession] == inspect.CauseConnBackpressure {
			// The stream stuck behind the wedged writer shares the cause, and
			// the group view surfaces it keyed by the connection, so
			// /debug/streams tells the story at a glance.
			if in, _ := starved(); in.Conn == "" || in.Diagnosis != inspect.CauseConnBackpressure {
				t.Fatalf("starved stream: conn %q, diagnosis %q; want a conn and %s", in.Conn, in.Diagnosis, inspect.CauseConnBackpressure)
			} else if !strings.HasPrefix(in.Label, "serve:flood<-") {
				t.Fatalf("served label %q does not name its peer", in.Label)
			}
			for _, g := range inspect.ConnGroups(inspect.Snapshot()) {
				if g.Diagnosis == inspect.CauseConnBackpressure {
					return
				}
			}
			t.Fatalf("no conn group carries the diagnosis: %+v", inspect.ConnGroups(inspect.Snapshot()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no conn-backpressure diagnosis; have %+v", inspect.Diagnoses())
}
