package remote

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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
	named := appendString(nil, "range")
	for _, c := range []struct {
		name    string
		typ     byte
		payload []byte
		want    string
	}{
		{"v1 OPEN", frameOpen, oldOpen(1, openNamed, named), "protocol version 1, want 5"},
		{"v2 OPEN", frameOpen, oldOpen(2, openNamed, named), "protocol version 2, want 5"},
		{"v3 OPEN", frameOpen, oldOpen(3, openNamed, named), "protocol version 3, want 5"},
		{"v4 OPEN", frameOpen, oldOpen(4, openNamed, named), "protocol version 4, want 5"},
		{"v4 RESUME", frameResume, oldOpen(4, openResume, []byte{4, 'J', 'S', 'N', 'P'}), "protocol version 4, want 5"},
		{"v6 session OPEN", frameOpen, oldOpen(6, openMux, nil), "protocol version 6, want 5"},
		{"stream OPEN outside a session", frameOpen, (&openReq{mode: openNamed, credit: 8, name: "range"}).marshal(), "session OPEN of protocol version 5"},
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
			if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
				t.Fatalf("after the ERR: %d more bytes, err=%v; want a clean close", len(rest), err)
			}
			if srv.Served() != 0 {
				t.Fatalf("refused peer was served %d streams", srv.Served())
			}
		})
	}

	for _, msg := range []string{"remote: protocol version 5, want <= 4", "server at connection limit"} {
		overRefusingListener(t, msg)
	}
}

// overRefusingListener points both constructors at a listener that answers
// every handshake with ERR msg, counting the connections it accepted.
func overRefusingListener(t *testing.T, msg string) {
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
			writeFrame(conn, frameErr, []byte(msg))
			conn.Close()
		}
	}()
	d := &Dialer{}
	defer d.Close()
	for name, open := range constructors(d) {
		t.Run(fmt.Sprintf("client/%s/%s", name, msg), func(t *testing.T) {
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
				if re, ok := p.Err().(*RemoteError); !ok || re.Msg != msg {
					t.Fatalf("Err = %v, want *RemoteError %q", p.Err(), msg)
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
