package remote

// Failure-mode coverage for RemotePipe: every way a stream can go wrong —
// server crash mid-stream, per-call deadline expiry, malformed frames,
// silent peers — must surface through Err() and a failing Next, never a
// deadlock. The fake servers below speak just enough of the protocol to
// misbehave precisely.

import (
	"net"
	"testing"
	"time"

	"junicon/internal/value"
	"junicon/internal/wire"
)

// fakePeer is the server end of one connection a fake server accepted,
// after the handshake and the client's first stream OPEN.
type fakePeer struct {
	net.Conn
	fr  *frameReader
	sid uint32 // the stream the client opened
}

// fakeServer accepts one connection, answers the session handshake, waits
// for the stream OPEN and hands the peer to behave on its own goroutine. A
// client that gets no further notices the teardown.
func fakeServer(t *testing.T, behave func(p *fakePeer)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if typ, _, err := readFrame(conn); err != nil || typ != frameOpen || writeFrame(conn, frameHello, nil) != nil {
			return
		}
		p := &fakePeer{Conn: conn, fr: newFrameReader(conn, 0)}
		defer p.fr.release()
		typ, sid, _, err := p.fr.readMux()
		if err != nil || typ != frameOpen {
			return
		}
		p.sid = sid
		behave(p)
	}()
	return l.Addr().String()
}

// send writes one frame on the peer's stream.
func (p *fakePeer) send(typ byte, payload []byte) error {
	_, err := p.Write(appendMuxFrame(nil, typ, p.sid, payload))
	return err
}

// sendValues writes n integers, each a VALUES run of one.
func (p *fakePeer) sendValues(n int) {
	for i := 1; i <= n; i++ {
		data, _ := wire.Marshal(value.NewInt(int64(i)))
		if p.send(frameValues, wire.AppendBatch(nil, [][]byte{data})) != nil {
			return
		}
	}
}

// hold keeps the connection open — the client must fail on what it was
// sent, not on a connection error — answering pings until the client
// leaves.
func (p *fakePeer) hold() {
	for {
		typ, sid, _, err := p.fr.readMux()
		if err != nil {
			return
		}
		if typ == framePing && sid == 0 {
			p.Write(appendMuxFrame(nil, framePong, 0, nil))
		}
	}
}

func TestServerCrashMidStream(t *testing.T) {
	addr := fakeServer(t, func(p *fakePeer) {
		p.sendValues(2)
		p.Close() // crash: no EOS, no ERR, connection just dies
	})
	p := Open(addr, "whatever", nil, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "crash surfacing", func() {
		got := drainInts(t, p, 100)
		if len(got) != 2 {
			t.Errorf("got %d values before crash, want 2", len(got))
		}
	})
	if p.Err() == nil {
		t.Fatal("server crash left Err nil — indistinguishable from clean EOS")
	}
	// Further Nexts keep failing fast, they do not hang or re-dial.
	within(t, time.Second, "post-crash Next", func() {
		if _, ok := p.Next(); ok {
			t.Error("crashed stream produced a value")
		}
	})
}

func TestMalformedValuePayloadSurfacesAsErr(t *testing.T) {
	addr := fakeServer(t, func(p *fakePeer) {
		p.send(frameValues, []byte{1, 3, 0xee, 0xff, 0x01}) // a run of one, with an unknown wire tag
		p.hold()
	})
	p := Open(addr, "whatever", nil, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "malformed value", func() {
		if _, ok := p.Next(); ok {
			t.Error("malformed frame decoded to a value")
		}
	})
	if p.Err() == nil {
		t.Fatal("malformed value frame left Err nil")
	}
}

func TestUnexpectedFrameTypeSurfacesAsErr(t *testing.T) {
	addr := fakeServer(t, func(p *fakePeer) {
		p.send(0x7f, []byte("junk")) // not a protocol frame type
		p.hold()
	})
	p := Open(addr, "whatever", nil, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "unexpected frame", func() {
		if _, ok := p.Next(); ok {
			t.Error("unexpected frame type produced a value")
		}
	})
	if p.Err() == nil {
		t.Fatal("unexpected frame type left Err nil")
	}
}

func TestOversizedFramePrefixSurfacesAsErr(t *testing.T) {
	addr := fakeServer(t, func(p *fakePeer) {
		// A length prefix over MaxFrame: the client must reject it before
		// allocating, not try to read 4GiB.
		hdr := muxHeader(frameValues, p.sid, 0)
		p.Write(append(hdr[:5], 0xff, 0xff, 0xff, 0xff))
		time.Sleep(2 * time.Second)
	})
	p := Open(addr, "whatever", nil, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "oversized prefix", func() {
		if _, ok := p.Next(); ok {
			t.Error("oversized frame produced a value")
		}
	})
	if p.Err() == nil {
		t.Fatal("oversized frame prefix left Err nil")
	}
}

func TestSilentPeerIsDetectedByLiveness(t *testing.T) {
	addr := fakeServer(t, func(p *fakePeer) {
		// Say nothing, answer nothing: a machine that froze with the
		// TCP connection still established.
		time.Sleep(5 * time.Second)
	})
	// heartbeat 25ms → liveness window 100ms
	p := testDialer(true).Open(addr, "whatever", nil, testConfig())
	defer p.Stop()
	within(t, 3*time.Second, "liveness detection", func() {
		if _, ok := p.Next(); ok {
			t.Error("silent peer produced a value")
		}
	})
	if p.Err() == nil {
		t.Fatal("silent peer left Err nil — Next would have hung without liveness")
	}
}

func TestMalformedFrameOnServerSideDropsStreamNotDaemon(t *testing.T) {
	// The server must also survive garbage: a client that sends a valid
	// OPEN then garbage frames loses its stream; the daemon keeps serving.
	s, addr := startServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawSession(t, conn)
	open := &openReq{mode: openNamed, credit: 4, name: "range"}
	open.args, _ = wire.Marshal(value.NewList(value.NewInt(1), value.NewInt(3)))
	conn.Write(appendMuxFrame(nil, frameOpen, 1, open.marshal()))
	conn.Write(appendMuxFrame(nil, 0x99, 1, []byte{0xab, 0xcd})) // garbage frame
	deadline := time.Now().Add(5 * time.Second)
	for s.ActiveStreams() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.ActiveStreams() != 0 {
		t.Fatal("garbage frame did not tear the stream down")
	}
	// Daemon still healthy.
	p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(2)}, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "post-garbage stream", func() {
		if got := drainInts(t, p, 10); len(got) != 2 {
			t.Errorf("daemon unhealthy after garbage: got %v", got)
		}
	})
}
