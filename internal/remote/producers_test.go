package remote

import (
	"bytes"
	"net"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"

	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// A served stream's producer is a goroutine of its session: when the
// stream ends it parks for the session's next OPEN, and teardown releases
// every parked producer and waits for it. These tests hold that ownership
// to the process's goroutine count with no sleep and no polling. Server.
// Close waits for every session to end, and a session ends only after its
// teardown has returned, so the moment Close returns is the moment the
// count must be back.

// dialRaw opens a session on addr for the test to drive frame by
// frame: the only goroutine on this end is the rawPeer's reader, which
// close joins.
func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := &openReq{mode: openMux, credit: 256}
	if err := writeFrame(conn, frameOpen, hello.marshal()); err != nil {
		t.Fatalf("handshake write: %v", err)
	}
	if typ, _, err := readFrame(conn); err != nil || typ != frameHello {
		t.Fatalf("handshake reply: typ=%#x err=%v", typ, err)
	}
	return newRawPeer(conn)
}

// openRange opens stream sid as range(1, n) with credit for all of it, so
// the server runs it to EOS with no CREDIT frame back; credit 0 leaves it
// stalled before its first value.
func openRange(p *rawPeer, sid uint32, n int64, credit uint64) {
	args, _ := wire.Marshal(value.NewList(value.NewInt(1), value.NewInt(n)))
	open := &openReq{mode: openNamed, name: "range", credit: credit, batch: 16, stream: uint64(sid), args: args}
	p.Write(appendMuxFrame(nil, frameOpen, sid, open.marshal()))
}

// storm opens and drains n streams of 20 to 80 values over p, at most
// inFlight at a time: a new OPEN goes out as each EOS comes in.
func storm(t *testing.T, p *rawPeer, n, inFlight int) {
	t.Helper()
	sid := uint32(0)
	open := func() {
		sid++
		openRange(p, sid, 20+int64(sid%61), 100)
	}
	for range min(inFlight, n) {
		open()
	}
	for done := 0; done < n; {
		f, ok := p.next(t)
		switch {
		case !ok:
			t.Fatalf("session closed after %d of %d streams", done, n)
		case f.typ == frameEOS:
			if done++; int(sid) < n {
				open()
			}
		case f.typ != frameValues:
			t.Fatalf("stream %d: unexpected %s", f.sid, frameName(f.typ))
		}
	}
}

func TestServedProducersAreSessionOwned(t *testing.T) {
	t.Run("client closes its session", func(t *testing.T) {
		srv, addr := startServer(t, nil)
		base := runtime.NumGoroutine()
		p := dialRaw(t, addr)
		storm(t, p, 300, 32)
		p.close()
		srv.Close()
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines once Server.Close has returned, %d before the session", n, base)
		}
	})
	t.Run("server ends the session with streams in flight", func(t *testing.T) {
		srv, addr := startServer(t, nil)
		base := runtime.NumGoroutine()
		p := dialRaw(t, addr)
		storm(t, p, 300, 32)
		// Eight producers stall on credit while the rest stay parked; a
		// HELLO on a stream id is a protocol violation, and the server
		// tears the session down.
		for sid := uint32(1001); sid <= 1008; sid++ {
			openRange(p, sid, 10, 0)
		}
		p.Write(appendMuxFrame(nil, frameHello, 1001, nil))
		srv.Close()
		p.close()
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines once Server.Close has returned, %d before the session", n, base)
		}
	})
}

// TestReusedProducerCarriesOnlyItsStream: a goroutine that served stream
// a and then serves stream b names b, by its junicon_stream pprof label
// and by its watchdog binding (the consumer edge a bound producer
// records), while it serves b; parked between streams it has no label.
// The binding's release and the label's are one deferred call in run.
func TestReusedProducerCarriesOnlyItsStream(t *testing.T) {
	if !inspect.Enable() {
		defer inspect.Disable()
	}
	started := make(chan uint64)
	hold := make(chan struct{})
	probe := inspect.Open(0, inspect.KindPipe, "probe")
	defer probe.Close()
	_, addr := startServer(t, func(s *Server) {
		s.Register("probe", func(args []value.V) (core.Gen, error) {
			id := value.MustInt(args[0])
			return &onceGen{f: func() value.V {
				if id == 0xb {
					probe.NoteConsume()
				}
				started <- goroutineID()
				<-hold
				return value.NewInt(1)
			}}, nil
		})
	})
	p := dialRaw(t, addr)
	defer p.close()
	// stream serves one stream and returns the goroutine that served it
	// and that goroutine's labels while it did.
	stream := func(id uint32) (gid uint64, label string) {
		args, _ := wire.Marshal(value.NewList(value.NewInt(int64(id))))
		open := &openReq{mode: openNamed, name: "probe", credit: 4, stream: uint64(id), args: args}
		p.Write(appendMuxFrame(nil, frameOpen, id, open.marshal()))
		gid = <-started
		label = labelOf(blockOf("remote.(*onceGen).Next", ""))
		hold <- struct{}{}
		for f, ok := p.next(t); f.typ != frameEOS; f, ok = p.next(t) {
			if !ok || f.typ != frameValues {
				t.Fatalf("stream %x: %s (ok=%v)", id, frameName(f.typ), ok)
			}
		}
		return gid, label
	}
	// parked waits for a producer to park and returns its labels.
	parked := func() string {
		eventually(t, "a parked producer", func() bool {
			return blockOf("remote.(*Session).producer", "remote.(*served).run") != ""
		})
		return labelOf(blockOf("remote.(*Session).producer", "remote.(*served).run"))
	}

	gidA, labelA := stream(0xa)
	if l := parked(); l != "" {
		t.Errorf("parked after stream a, the producer is labeled %s", l)
	}
	gidB, labelB := stream(0xb)
	if gidB != gidA {
		t.Fatalf("stream b ran on goroutine %d, not on a's parked %d", gidB, gidA)
	}
	if labelA != `{"junicon_stream":"a"}` || labelB != `{"junicon_stream":"b"}` {
		t.Errorf("labels while serving: a %s, b %s", labelA, labelB)
	}
	edge := "none"
	for _, s := range inspect.Snapshot() {
		if s.ID == "b" && s.Kind == inspect.KindRemoteServer {
			edge = s.ConsumesFrom
		}
	}
	if edge != inspect.StreamID(probe.ID()) {
		t.Errorf("serving b, the goroutine's consumer edge went to %q's record, want b's", edge)
	}
	if l := parked(); l != "" {
		t.Errorf("parked after stream b, the producer is labeled %s", l)
	}
}

// onceGen yields f's value once, computing it on the goroutine that calls
// Next: for a served stream, its producer.
type onceGen struct {
	f    func() value.V
	done bool
}

func (g *onceGen) Next() (value.V, bool) {
	if g.done {
		return nil, false
	}
	g.done = true
	return g.f(), true
}

func (g *onceGen) Restart() { g.done = false }

// goroutineID is the calling goroutine's ID, from its stack header.
func goroutineID() uint64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// blockOf returns the goroutine profile's block for the goroutines whose
// stacks pass through fn and not through not, or "" when there is none.
func blockOf(fn, not string) string {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 1)
	for _, block := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(block, fn) && (not == "" || !strings.Contains(block, not)) {
			return block
		}
	}
	return ""
}

// labelOf returns the labels of a goroutine profile block, or "".
func labelOf(block string) string {
	for _, line := range strings.Split(block, "\n") {
		if l, ok := strings.CutPrefix(line, "# labels: "); ok {
			return l
		}
	}
	return ""
}
