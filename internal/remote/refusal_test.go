package remote

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"junicon/internal/wire"
)

// oldOpen builds by hand the OPEN payload a client of protocol ver sent:
// v1 had the credit alone, v2 added the stream id, v3 the batch, v4 the
// interval and skip.
func oldOpen(ver, mode byte, tail []byte) []byte {
	b := []byte{ver, mode, 8} // credit 8
	for _, since := range []byte{2, 3, 4, 4} {
		if ver >= since {
			b = append(b, 0)
		}
	}
	return append(b, tail...)
}

// TestWrongPeerIsRefusedLoudly: there is no interop matrix. A server sent
// anything but the session OPEN of its own version answers one ERR naming
// what it got and what it speaks, then closes; a client whose handshake is
// answered with ERR reports it as a *RemoteError — no retry, no second
// dial, no verdict cached for the next pipe.
func TestWrongPeerIsRefusedLoudly(t *testing.T) {
	named := wire.AppendString(nil, "range")
	for _, c := range []struct {
		name    string
		typ     byte
		payload []byte
		want    string
	}{
		{"v1 OPEN", frameOpen, oldOpen(1, openNamed, named), "protocol version 1, want 6"},
		{"v2 OPEN", frameOpen, oldOpen(2, openNamed, named), "protocol version 2, want 6"},
		{"v3 OPEN", frameOpen, oldOpen(3, openNamed, named), "protocol version 3, want 6"},
		{"v4 OPEN", frameOpen, oldOpen(4, openNamed, named), "protocol version 4, want 6"},
		// 0x0b was the RESUME frame until v5; it is no frame type now.
		{"v4 RESUME", 0x0b, oldOpen(4, openResume, []byte{4, 'J', 'S', 'N', 'P'}), "expected OPEN"},
		{"v5 session OPEN", frameOpen, oldOpen(5, openMux, nil), "protocol version 5, want 6"},
		{"v5 RESUME", 0x0b, oldOpen(5, openResume, []byte{4, 'J', 'S', 'N', 'P'}), "expected OPEN"},
		{"v7 session OPEN", frameOpen, oldOpen(7, openMux, nil), "protocol version 7, want 6"},
		{"stream OPEN outside a session", frameOpen, (&openReq{mode: openNamed, credit: 8, name: "range"}).marshal(), "session OPEN of protocol version 6"},
		{"not an OPEN", framePing, nil, "expected OPEN"},
	} {
		t.Run("server/"+c.name, func(t *testing.T) {
			srv, addr := startServer(t, nil)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if err := writeFrame(conn, c.typ, c.payload); err != nil {
				t.Fatal(err)
			}
			typ, msg, err := readFrame(conn)
			if err != nil || typ != frameErr || !strings.Contains(string(msg), c.want) {
				t.Fatalf("answer: %s %q err=%v, want ERR containing %q", frameName(typ), msg, err, c.want)
			}
			if re := parseErr(msg); re.Class != ClassProtocol {
				t.Fatalf("answer's class is %d, want ClassProtocol", re.Class)
			}
			if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
				t.Fatalf("after the ERR: %d more bytes, err=%v; want a clean close", len(rest), err)
			}
			if srv.Served() != 0 {
				t.Fatalf("refused peer was served %d streams", srv.Served())
			}
		})
	}

	// The first two are what servers older than the ERR class byte say: a
	// v4 one to a v5 client, a v5 one to this client. Their words reach
	// Err() whole, as a protocol-class refusal.
	for _, want := range []RemoteError{
		{ClassProtocol, "remote: protocol version 5, want <= 4"},
		{ClassProtocol, "remote: protocol version 6, want 5"},
		{ClassRefused, "server at connection limit"},
	} {
		payload := []byte(want.Msg)
		if want.Class != ClassProtocol {
			payload = errPayload(want.Class, want.Msg)
		}
		overRefusingListener(t, want, payload)
	}
}

// overRefusingListener points both constructors at a listener that answers
// every handshake with an ERR of the given payload, counting the
// connections it accepted; want is what the pipe's Err must then be.
func overRefusingListener(t *testing.T, want RemoteError, payload []byte) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var accepts atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			readFrame(conn)
			writeFrame(conn, frameErr, payload)
			conn.Close()
		}
	}()
	d := &Dialer{}
	defer d.Close()
	for name, open := range constructors(d) {
		t.Run(fmt.Sprintf("client/%s/%s", name, want.Msg), func(t *testing.T) {
			cfg := testConfig()
			cfg.Recover = true // a refusal is not a connection loss: nothing to redial through
			for round := int64(1); round <= 2; round++ {
				before := accepts.Load()
				p := open(l.Addr().String(), "range", nil, cfg)
				within(t, 5*time.Second, "refused Next", func() {
					for i := 0; i < 2; i++ {
						if _, ok := p.Next(); ok {
							t.Error("refused pipe produced a value")
						}
					}
				})
				if re, ok := p.Err().(*RemoteError); !ok || *re != want {
					t.Fatalf("Err = %#v, want %#v", p.Err(), want)
				}
				// One dial per pipe: the second Next did not redial, and the
				// second pipe did not inherit the first one's refusal.
				if got := accepts.Load() - before; got != 1 {
					t.Fatalf("pipe %d dialed %d times, want 1", round, got)
				}
				p.Stop()
			}
		})
	}
}

// TestHandshakeIsBounded: a connection's first frame is a dozen bytes, and
// the server holds nothing for a peer that claims more. A header announcing
// a MaxFrame payload and then silence is answered with ERR and a close at
// once, both under the connection limit (handleConn) and over it (the
// refusal path, which MaxConns does not count) — where it used to pin the
// 32 MiB it announced until IdleTimeout. A peer over the limit that sends
// nothing at all is dropped after refusalTimeout, not IdleTimeout.
func TestHandshakeIsBounded(t *testing.T) {
	srv, addr := startServer(t, func(s *Server) { s.MaxConns = 2 })
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	claim := append([]byte{frameOpen}, binary.BigEndian.AppendUint32(nil, MaxFrame)...)
	answered := func(conn net.Conn, class ErrClass) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(time.Second))
		typ, payload, err := readFrame(conn)
		if err != nil || typ != frameErr || parseErr(payload).Class != class {
			t.Fatalf("answer to a %d-byte claim: %s %q err=%v, want ERR of class %d", MaxFrame, frameName(typ), payload, err, class)
		}
		if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
			t.Fatalf("after the ERR: %d more bytes, err=%v; want a clean close", len(rest), err)
		}
	}
	hostile := []net.Conn{dial(), dial()}
	for _, conn := range hostile {
		conn.Write(claim)
	}
	for _, conn := range hostile {
		answered(conn, ClassProtocol)
	}
	eventually(t, "refused connections released", func() bool { return srv.ActiveConns() == 0 })

	// Fill the server to its limit with two well-behaved sessions.
	for i := 0; i < 2; i++ {
		rawSession(t, dial())
	}
	hostile = []net.Conn{dial(), dial()}
	silent, silentFrom := dial(), time.Now()
	for _, conn := range hostile {
		conn.Write(claim)
	}
	for _, conn := range hostile {
		answered(conn, ClassRefused)
	}

	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrame/4 {
		t.Errorf("four %d-byte claims cost the process %d bytes of allocation", MaxFrame, grew)
	}

	silent.SetReadDeadline(silentFrom.Add(3 * refusalTimeout))
	if typ, payload, err := readFrame(silent); err != nil || typ != frameErr || parseErr(payload).Class != ClassRefused {
		t.Fatalf("silent peer over the limit: %s %q err=%v, want the ERR", frameName(typ), payload, err)
	}
	if took := time.Since(silentFrom); took < refusalTimeout/2 || took > 2*refusalTimeout {
		t.Errorf("silent peer over the limit was dropped after %v, want about %v", took, refusalTimeout)
	}
}
