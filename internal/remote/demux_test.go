package remote

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// The one demux table. Both ends of a session run Session.dispatch over
// their role's table, so what a frame does depends on three things only:
// its type, which end received it, and whether its stream id is live in
// the table, finished (not in it) or 0. serverRows and clientRows write
// that down, one line per frame type; TestDemuxTable holds both roles to
// them against a raw peer, and FuzzSessionDemux starts from the same rows.

// What a frame can do to the end that receives it. A server's stream that
// handles one may also answer on its id, and the outcome is then the name
// of the answer: "VALUES", "SNAPSHOT", "EOS", "ERR".
const (
	kills   = "session error" // a protocol violation: the connection closes, every stream on it fails
	dropped = "dropped"       // the tail of a finished stream: nothing happens
	quiet   = "nothing"       // handled, with nothing to see
	pongs   = "PONG"          // handled: a PONG comes back on stream 0
	ends    = "ends"          // handled: the stream is over (cancelled on the server; EOS on the client)
	// On the client a handled frame shows at the pipe.
	yields  = "value"   // Next returns the value it carried
	fails   = "fails"   // the stream fails (Err is set), its siblings and the session live
	refusal = "refusal" // SnapshotRefusal reports the reason it carried
)

type demuxRow struct {
	name                 string
	typ                  byte
	payload              []byte
	live, finished, zero string // outcome by where the stream id points
}

func allKill(name string, typ byte, payload []byte) demuxRow {
	return demuxRow{name, typ, payload, kills, kills, kills}
}

var (
	maxCredit  = binary.AppendUvarint(nil, 1<<64-1)
	oneValue   = wire.AppendBatch(nil, [][]byte{{0x01, 0x54}}) // the integer 42
	openFail   = (&openReq{mode: openNamed, credit: 1, name: "fail"}).marshal()
	refusedWhy = snapshotPayload(0, false, []byte("no"))
)

// serverRows: what a client may say. An OPEN makes a stream where there is
// none and is a violation where there is one; CREDIT, SNAPREQ and CANCEL
// speak about a live stream and are the tail of a finished one; nothing
// else is a client's to send, 0x03 (VALUE) and 0x0b (RESUME) included.
var serverRows = []demuxRow{
	{"OPEN", frameOpen, openFail, kills, "EOS", kills},
	{"OPEN malformed", frameOpen, []byte{0xff}, kills, "ERR", kills},
	{"CREDIT", frameCredit, creditPayload(1), "VALUES", dropped, kills},
	{"CREDIT malformed", frameCredit, nil, kills, dropped, kills},
	{"SNAPREQ", frameSnapReq, nil, "SNAPSHOT", dropped, kills},
	{"CANCEL", frameCancel, nil, ends, dropped, kills},
	{"PING", framePing, nil, kills, kills, pongs},
	{"PONG", framePong, nil, kills, kills, quiet},
	allKill("VALUES", frameValues, oneValue),
	allKill("EOS", frameEOS, nil),
	allKill("ERR", frameErr, errPayload(ClassProducer, "x")),
	allKill("SNAPSHOT", frameSnapshot, refusedWhy),
	allKill("HELLO", frameHello, nil),
	allKill("0x03", 0x03, oneValue[2:]),
	allKill("0x0b", 0x0b, openFail),
	allKill("0x7f", 0x7f, []byte("junk")),
}

// clientRows: what a server may say. VALUES, EOS, ERR and SNAPSHOT speak
// about a live stream and are the tail of a finished one (a flush can race
// a cancel); nothing else is a server's to send.
var clientRows = []demuxRow{
	{"VALUES", frameValues, oneValue, yields, dropped, kills},
	{"VALUES malformed", frameValues, []byte{1, 3, 0xee, 0xff, 0x01}, fails, dropped, kills},
	{"EOS", frameEOS, nil, ends, dropped, kills},
	{"ERR", frameErr, errPayload(ClassProducer, "x"), fails, dropped, kills},
	{"SNAPSHOT", frameSnapshot, refusedWhy, refusal, dropped, kills},
	{"SNAPSHOT malformed", frameSnapshot, nil, fails, dropped, kills},
	{"PING", framePing, nil, kills, kills, pongs},
	{"PONG", framePong, nil, kills, kills, quiet},
	allKill("OPEN", frameOpen, openFail),
	allKill("CREDIT", frameCredit, creditPayload(1)),
	allKill("SNAPREQ", frameSnapReq, nil),
	allKill("CANCEL", frameCancel, nil),
	allKill("HELLO", frameHello, nil),
	allKill("0x03", 0x03, oneValue[2:]),
	allKill("0x0b", 0x0b, openFail),
	allKill("0x7f", 0x7f, []byte("junk")),
}

// Stream ids of the fixture: one live stream, one that has finished.
const (
	liveSID     = 1
	finishedSID = 2
)

type rawFrame struct {
	typ     byte
	sid     uint32
	payload []byte
}

// rawPeer is the test's end of a session whose other end is under test:
// writes go straight to the connection, and a reader goroutine parses what
// comes back.
type rawPeer struct {
	net.Conn
	// frames holds what the end under test sent; closed when its
	// connection ends. The buffer lets a case look at the stream's state
	// before it reads what the stream said; a flood past it parks the
	// reader until close drains it.
	frames chan rawFrame
}

func newRawPeer(conn net.Conn) *rawPeer {
	p := &rawPeer{Conn: conn, frames: make(chan rawFrame, 256)}
	fr := newFrameReader(conn, 0)
	go func() {
		defer fr.release()
		defer close(p.frames)
		for {
			typ, sid, payload, err := fr.readMux()
			if err != nil {
				return
			}
			p.frames <- rawFrame{typ, sid, append([]byte(nil), payload...)}
		}
	}()
	return p
}

// close ends the connection and waits for the reader to have gone.
func (p *rawPeer) close() {
	p.Conn.Close()
	for range p.frames {
	}
}

// next returns the next frame of interest — the client's heartbeat and its
// credit grants are not — or ok=false once the connection has closed.
func (p *rawPeer) next(t testing.TB) (rawFrame, bool) {
	t.Helper()
	for {
		select {
		case f, ok := <-p.frames:
			if ok && (f.typ == framePing || f.typ == frameCredit || f.typ == frameOpen) {
				continue
			}
			return f, ok
		case <-time.After(5 * time.Second):
			t.Fatal("the end under test neither answered nor closed within 5s")
		}
	}
}

// probe sends the frame under test, then a PING on stream 0, and collects
// what comes back up to the PONG — which is ordered after the handling of
// everything before the PING — and, if want names a frame that comes back
// (a second PONG, or what the stream sends from its producer goroutine), up
// to that. alive is false when the session closed instead.
func (p *rawPeer) probe(t testing.TB, frame []byte, want string) (got []rawFrame, alive bool) {
	t.Helper()
	p.Write(appendMuxFrame(frame, framePing, 0, nil))
	ponged := false
	answered := !map[string]bool{"PONG": true, "VALUES": true, "SNAPSHOT": true, "EOS": true, "ERR": true}[want]
	for !ponged || !answered {
		f, ok := p.next(t)
		if !ok {
			return got, false
		}
		if f.typ == framePong && f.sid == 0 && !ponged {
			ponged = true
			continue
		}
		answered = answered || frameName(f.typ) == want
		got = append(got, f)
	}
	return got, true
}

// baseline snapshots the goroutines and fill buffers a case must give back
// and returns the check. With a server, the check first waits for it to
// have let go of every connection and stream by itself, then closes it.
func baseline(t testing.TB) func(srv *Server) {
	goroutines, fills := runtime.NumGoroutine(), fillOut.Load()
	return func(srv *Server) {
		t.Helper()
		if srv != nil {
			eventually(t, "server connections and streams released", func() bool {
				return srv.ActiveConns()+srv.ActiveStreams() == 0
			})
			srv.Close()
		}
		eventually(t, "goroutines and fill buffers back to baseline", func() bool {
			return runtime.NumGoroutine() <= goroutines && fillOut.Load() <= fills
		})
	}
}

// serverFixture is a server's session over the pipe-backed listener with
// the fixture's two streams: liveSID parked in acquire with no credit, and
// finishedSID run to EOS and retired.
func serverFixture(t testing.TB) (*Server, *rawPeer) {
	t.Helper()
	srv := NewServer()
	srv.Register("hold", func([]value.V) (core.Gen, error) { return core.RepeatAlt(core.Unit(value.NewInt(1))), nil })
	srv.Register("fail", func([]value.V) (core.Gen, error) { return core.Empty(), nil })
	l := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	go srv.Serve(l)
	client, server := net.Pipe()
	l.conns <- server
	hello := &openReq{mode: openMux, credit: 16, stream: 99}
	if err := writeFrame(client, frameOpen, hello.marshal()); err != nil {
		t.Fatalf("handshake write: %v", err)
	}
	if typ, _, err := readFrame(client); err != nil || typ != frameHello {
		t.Fatalf("handshake reply: typ=%#x err=%v", typ, err)
	}
	p := newRawPeer(client)
	hold := &openReq{mode: openNamed, credit: 0, name: "hold"}
	p.Write(appendMuxFrame(appendMuxFrame(nil, frameOpen, liveSID, hold.marshal()), frameOpen, finishedSID, openFail))
	if f, ok := p.next(t); !ok || f.typ != frameEOS || f.sid != finishedSID {
		t.Fatalf("fixture: want EOS on stream %d, got %s on %d (ok=%v)", finishedSID, frameName(f.typ), f.sid, ok)
	}
	// The EOS is on the wire before its producer has retired the stream.
	for deadline := time.Now().Add(5 * time.Second); srv.ActiveStreams() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fixture: %d active streams, want the live one only", srv.ActiveStreams())
		}
	}
	return srv, p
}

// clientFixture is a Dialer's session against a fake server, with the
// fixture's two streams: live is open and has received nothing, and a
// second pipe has been run to EOS, so finishedSID has left the table.
func clientFixture(t testing.TB) (d *Dialer, live *RemotePipe, p *rawPeer) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err == nil {
			readFrame(conn)
			writeFrame(conn, frameHello, nil)
		}
		accepted <- conn
	}()
	d = &Dialer{} // default heartbeat: the fake server answers no PING
	live = d.Open(l.Addr().String(), "live", nil, Config{Buffer: 4})
	live.StartEager()
	done := d.Open(l.Addr().String(), "done", nil, Config{Buffer: 4})
	done.StartEager()
	conn := <-accepted
	if conn == nil || live.Err() != nil || done.Err() != nil {
		t.Fatalf("fixture: conn=%v live=%v done=%v", conn, live.Err(), done.Err())
	}
	p = newRawPeer(conn)
	p.Write(appendMuxFrame(nil, frameEOS, finishedSID, nil))
	if _, ok := done.Next(); ok || done.Err() != nil {
		t.Fatalf("fixture: second pipe did not end cleanly: %v", done.Err())
	}
	return d, live, p
}

// place is one of the three things a frame's stream id can point at, with
// the outcome a row expects there.
type place struct {
	sid  uint32
	want string
}

func places(r demuxRow) map[string]place {
	return map[string]place{"live": {liveSID, r.live}, "finished": {finishedSID, r.finished}, "stream 0": {0, r.zero}}
}

func TestDemuxTable(t *testing.T) {
	for _, r := range serverRows {
		for place, c := range places(r) {
			t.Run("server/"+r.name+"/"+place, func(t *testing.T) {
				check := baseline(t)
				srv, p := serverFixture(t)
				got, alive := p.probe(t, appendMuxFrame(nil, r.typ, c.sid, r.payload), c.want)
				if alive != (c.want != kills) {
					t.Fatalf("alive=%v after a frame that %s; it answered %v", alive, c.want, got)
				}
				// What comes back: nothing, or the one frame the outcome
				// names (the PONG in got is the second: probe took its own).
				switch c.want {
				case kills, dropped, quiet, ends:
					if len(got) != 0 {
						t.Fatalf("server sent back %v, want nothing", got)
					}
				default:
					if len(got) != 1 || frameName(got[0].typ) != c.want || got[0].sid != c.sid {
						t.Fatalf("server sent back %v, want one %s on stream %d", got, c.want, c.sid)
					}
				}
				if alive {
					wantStreams := 1
					if c.want == ends {
						wantStreams = 0
					}
					eventually(t, "stream count", func() bool { return srv.ActiveStreams() == wantStreams })
				}
				p.close()
				check(srv)
			})
		}
	}
	for _, r := range clientRows {
		for place, c := range places(r) {
			t.Run("client/"+r.name+"/"+place, func(t *testing.T) {
				check := baseline(t)
				d, live, p := clientFixture(t)
				got, alive := p.probe(t, appendMuxFrame(nil, r.typ, c.sid, r.payload), c.want)
				if alive != (c.want != kills) {
					t.Fatalf("alive=%v after a frame that %s; it answered %v", alive, c.want, got)
				}
				// What the client says back: a CANCEL for a stream it
				// abandons, the second PONG, otherwise nothing.
				wantBack := map[string]string{fails: "CANCEL", pongs: "PONG"}[c.want]
				if r.typ == frameErr {
					wantBack = "" // an ERR ended the stream at the server already
				}
				back := ""
				for _, f := range got {
					back += frameName(f.typ)
				}
				if back != wantBack {
					t.Fatalf("client sent back %v, want %q", got, wantBack)
				}
				switch c.want {
				case kills:
					within(t, 5*time.Second, "Next on a dead session", func() { live.Next() })
					if live.Err() == nil {
						t.Fatal("session died and the live stream has no error")
					}
				case yields:
					if v, ok := live.Next(); !ok || value.Image(v) != "42" {
						t.Fatalf("Next = %v, %v; want 42", v, ok)
					}
				case ends, fails:
					if _, ok := live.Next(); ok || (live.Err() != nil) != (c.want == fails) {
						t.Fatalf("Next ok=%v Err=%v after a frame that %s", ok, live.Err(), c.want)
					}
				case refusal:
					if live.SnapshotRefusal() != "no" {
						t.Fatalf("SnapshotRefusal = %q", live.SnapshotRefusal())
					}
				}
				if alive && c.want != ends && c.want != fails {
					// The live stream is untouched: it still delivers.
					p.Write(appendMuxFrame(nil, frameValues, liveSID, oneValue))
					if v, ok := live.Next(); !ok || value.Image(v) != "42" {
						t.Fatalf("live stream after the frame: Next = %v, %v (Err %v)", v, ok, live.Err())
					}
				}
				live.Stop()
				d.Close()
				p.close()
				check(nil)
			})
		}
	}
}

// FuzzSessionDemux: whatever bytes follow the handshake, neither end
// panics, neither holds more than one frame's worth of memory for them, and
// both give back every goroutine, connection and fill buffer when the
// connection ends. Seeded with every row of the table at every place, plus
// the hostile shapes the table cannot hold still: credit that overflows,
// stream ids at the edges, a length past MaxFrame and one just under it
// with nothing behind it.
func FuzzSessionDemux(f *testing.F) {
	for role, rows := range [][]demuxRow{serverRows, clientRows} {
		for _, r := range rows {
			for _, c := range places(r) {
				f.Add(role == 0, appendMuxFrame(nil, r.typ, c.sid, r.payload))
			}
		}
	}
	flood := appendMuxFrame(nil, frameCredit, liveSID, maxCredit)
	f.Add(true, appendMuxFrame(flood, frameCredit, liveSID, maxCredit))
	f.Add(true, appendMuxFrame(nil, frameOpen, 1<<32-1, openFail))
	f.Add(false, appendMuxFrame(nil, frameValues, 1<<32-1, oneValue))
	over := muxHeader(frameCredit, liveSID, MaxFrame+1)
	under := muxHeader(frameValues, liveSID, MaxFrame)
	for _, server := range []bool{true, false} {
		f.Add(server, over[:])
		f.Add(server, under[:])
	}
	f.Fuzz(func(t *testing.T, server bool, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		check := baseline(t)
		var srv *Server
		var p *rawPeer
		stop := func() {}
		if server {
			srv, p = serverFixture(t)
		} else {
			d, live, peer := clientFixture(t)
			consumed := make(chan struct{})
			go func() {
				defer close(consumed)
				for _, ok := live.Next(); ok; _, ok = live.Next() {
				}
			}()
			p, stop = peer, func() { live.Stop(); d.Close(); <-consumed }
		}
		// The input, then a PING: wait for the PONG, the close, or — the
		// input ended inside a frame and swallowed the PING — a moment.
		p.Write(appendMuxFrame(data, framePing, 0, nil))
		for settled := time.After(20 * time.Millisecond); ; {
			select {
			case f, ok := <-p.frames:
				if ok && (f.typ != framePong || f.sid != 0) {
					continue
				}
			case <-settled:
			}
			break
		}
		p.close()
		stop()
		check(srv)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrame+MaxFrame/2 {
			t.Fatalf("%d bytes of input cost %d bytes of allocation", len(data), grew)
		}
	})
}
