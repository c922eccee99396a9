package remote

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// Receive-side coalescing at the connection level: payload views must not
// outlive their fill, fill buffers must come back, and the liveness window
// must cost one deadline arm per fill while still dropping a silent peer.

// rawSession completes the session handshake on conn and returns a frame reader
// for the server's answers.
func rawSession(t *testing.T, conn net.Conn) *frameReader {
	t.Helper()
	hello := &openReq{mode: openMux, credit: 16, stream: 99}
	if err := writeFrame(conn, frameOpen, hello.marshal()); err != nil {
		t.Fatalf("handshake write: %v", err)
	}
	if typ, _, err := readFrame(conn); err != nil || typ != frameHello {
		t.Fatalf("handshake reply: typ=%#x err=%v", typ, err)
	}
	fr := newFrameReader(conn, 0)
	t.Cleanup(fr.release)
	return fr
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpenArgsSurviveBufferReuse: an OPEN with a large argument list
// arrives in the same write as CREDIT and CANCEL frames for other stream
// ids, the fill buffer is then overwritten end to end by later traffic,
// and only after that is the stream granted credit. The arguments it
// echoes back must be the ones sent: nothing the stream keeps may alias
// the reader's buffer.
func TestOpenArgsSurviveBufferReuse(t *testing.T) {
	_, addr := startServer(t, func(s *Server) {
		s.Register("echo", func(args []value.V) (core.Gen, error) {
			return core.NewGen(func(yield func(value.V) bool) {
				for _, a := range args {
					if !yield(a) {
						return
					}
				}
			}), nil
		})
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := rawSession(t, conn)

	const nargs = 1500
	args := make([]value.V, nargs)
	for i := range args {
		args[i] = value.String(fmt.Sprintf("argument-%04d-%s", i, "abcdefghij"))
	}
	open := &openReq{mode: openNamed, name: "echo", credit: 0}
	open.args, _ = wire.Marshal(value.NewList(args...))
	first := appendMuxFrame(nil, frameOpen, 1, open.marshal())
	if len(first) < fillSize/2 || len(first) > fillSize {
		t.Fatalf("OPEN frame is %d bytes; the test wants a large one that still fits the %d-byte fill buffer", len(first), fillSize)
	}
	first = appendMuxFrame(first, frameCredit, 2, creditPayload(5))
	first = appendMuxFrame(first, frameCancel, 3, nil)
	first = appendMuxFrame(first, frameCredit, 4, creditPayload(7))
	if _, err := conn.Write(first); err != nil {
		t.Fatal(err)
	}
	// Overwrite the whole fill buffer, twice over, with frames for streams
	// that do not exist, then grant the echo stream its credit.
	var filler []byte
	junk := make([]byte, 9) // a maximal uvarint: a valid CREDIT payload
	for i := range junk {
		junk[i] = 0xff
	}
	junk[8] = 0x7f
	for len(filler) < 2*fillSize {
		filler = appendMuxFrame(filler, frameCredit, 1000, junk)
	}
	filler = appendMuxFrame(filler, frameCredit, 1, creditPayload(nargs+1)) // +1: the Next that finds the end
	if _, err := conn.Write(filler); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var got []value.V
	for {
		typ, sid, payload, err := fr.readMux()
		if err != nil {
			t.Fatalf("after %d values: %v", len(got), err)
		}
		if sid != 1 {
			continue
		}
		if typ == frameEOS {
			break
		}
		if typ != frameValues {
			t.Fatalf("frame %s on the echo stream: %q", frameName(typ), payload)
		}
		if got, err = wire.UnmarshalBatchInto(got, payload, wire.DefaultLimits); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != nargs {
		t.Fatalf("%d values echoed, want %d", len(got), nargs)
	}
	for i := range got {
		if g, w := value.Image(got[i]), value.Image(args[i]); g != w {
			t.Fatalf("argument %d came back as %s, want %s", i, g, w)
		}
	}
}

// TestSessionFillBuffersComeBack: the count of fill buffers out of the
// pool is zero with nothing live — every read loop an earlier test started
// has handed its buffer back — two with one session up (one per end), and
// zero again once the client session is closed and the server has torn
// its side down. The same for a package-level pipe's private session.
func TestSessionFillBuffersComeBack(t *testing.T) {
	idle := func() bool { return fillOut.Load() == 0 }
	eventually(t, "earlier tests' fill buffers returned", idle)
	srv, addr := startServer(t, nil)
	d := testDialer(false)
	var pipes []*RemotePipe
	for i := 0; i < 4; i++ {
		p := d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(1000)}, Config{Buffer: 4})
		if _, ok := p.Next(); !ok {
			t.Fatalf("stream %d: %v", i, p.Err())
		}
		pipes = append(pipes, p)
	}
	if got := fillOut.Load(); got != 2 {
		t.Fatalf("fillOut %d with one live session, want 2 (one buffer per end)", got)
	}
	d.Close()
	for _, p := range pipes {
		p.Stop()
	}
	eventually(t, "session fill buffers returned", idle)
	eventually(t, "server connection closed", func() bool { return srv.ActiveConns() == 0 })

	p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(1000)}, testConfig())
	if _, ok := p.Next(); !ok {
		t.Fatal(p.Err())
	}
	if got := fillOut.Load(); got != 2 {
		t.Fatalf("fillOut %d with one private session, want 2", got)
	}
	p.Stop()
	eventually(t, "private session's fill buffers returned", idle)
}

// armCounter counts SetReadDeadline calls on a connection.
type armCounter struct {
	net.Conn
	arms *atomic.Int64
}

func (c armCounter) SetReadDeadline(t time.Time) error {
	c.arms.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// pipeListener hands a server one end of a net.Pipe: a Write on the other
// end is consumed by exactly the Reads that take it, so "one segment" is
// deterministic where loopback TCP could split it.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestCoalescedFramesArmDeadlineOncePerFill: hundreds of frames arriving
// in one segment cost the server's session loop at most two deadline arms
// (the fill that took them, and the one it blocks in afterwards) — not one
// per frame.
func TestCoalescedFramesArmDeadlineOncePerFill(t *testing.T) {
	srv := NewServer()
	l := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	client, server := net.Pipe()
	var arms atomic.Int64
	l.conns <- armCounter{Conn: server, arms: &arms}
	defer client.Close()

	fr := rawSession(t, client)
	// A first exchange so the server is known to sit in its blocking fill.
	if _, err := client.Write(appendMuxFrame(nil, framePing, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := fr.readMux(); err != nil || typ != framePong {
		t.Fatalf("first pong: typ=%#x err=%v", typ, err)
	}
	const frames = 400
	var burst []byte
	for i := 0; i < frames; i++ {
		burst = appendMuxFrame(burst, frameCredit, uint32(1000+i), creditPayload(1))
	}
	burst = appendMuxFrame(burst, framePing, 0, nil)
	start := arms.Load()
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	// The PONG is ordered after all 400 frames before it were handled.
	if typ, _, _, err := fr.readMux(); err != nil || typ != framePong {
		t.Fatalf("pong after burst: typ=%#x err=%v", typ, err)
	}
	if got := arms.Load() - start; got > 2 {
		t.Errorf("%d frames in one segment armed the read deadline %d times, want <= 2", frames+1, got)
	}
}

// silentPeer dials a server whose idle window is idle, runs speak on the
// connection, and then reports how long the server took to drop it.
func silentPeer(t *testing.T, idle time.Duration, speak func(conn net.Conn)) time.Duration {
	t.Helper()
	_, addr := startServer(t, func(s *Server) { s.IdleTimeout = idle })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	speak(conn)
	silentFrom := time.Now()
	conn.SetReadDeadline(silentFrom.Add(20 * idle))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server kept a silent peer past %v: %v", 20*idle, err)
	}
	return time.Since(silentFrom)
}

// TestServerIdleTimeoutDropsSilentPeer: the idle window, armed per fill,
// drops a peer that stops talking — before the handshake, on a session,
// and when the silence starts between a frame's header and the end of its
// payload (for a payload that fits the fill buffer, and for one on the
// direct path).
func TestServerIdleTimeoutDropsSilentPeer(t *testing.T) {
	const idle = 100 * time.Millisecond
	session := func(then func(conn net.Conn)) func(net.Conn) {
		return func(conn net.Conn) {
			rawSession(t, conn)
			then(conn)
		}
	}
	partial := func(n int) func(net.Conn) {
		return func(conn net.Conn) {
			hdr := muxHeader(frameCredit, 7, n)
			conn.Write(append(hdr[:], make([]byte, n/2)...))
		}
	}
	for _, c := range []struct {
		name  string
		speak func(net.Conn)
	}{
		{"before handshake", func(net.Conn) {}},
		{"session", session(func(net.Conn) {})},
		{"mid-payload", session(partial(1000))},
		{"mid-payload, direct path", session(partial(4 * fillSize))},
	} {
		t.Run(c.name, func(t *testing.T) {
			took := silentPeer(t, idle, c.speak)
			if took < idle/2 || took > 10*idle {
				t.Errorf("silent peer dropped after %v, want about %v", took, idle)
			}
		})
	}
}
