package remote

import (
	"fmt"
	"math"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// The incarnation table. A pipe holds one stream incarnation, p.cur; every
// way one ends goes through reset and every way the next begins through
// reopen. What can still arrive afterwards was captured from the previous
// incarnation — a credit grant counted on it, a SNAPSHOT or ERR dispatched
// for it, its connection's loss, its deadline timer — and can speak to that
// incarnation only. TestIncarnationTable crosses the ends with the late
// events against a scripted peer, so every frame either side sends is the
// test's to order and to see, and nothing is waited for but a channel.

// scriptedListener plays junicond's accept loop and session handshake and
// hands each session to the test as a rawPeer to script.
type scriptedListener struct {
	net.Listener
	addr     string
	sessions chan *rawPeer
}

func listenScripted(t *testing.T) *scriptedListener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for every session a row dials, so the accept loop never waits on
	// the script.
	s := &scriptedListener{Listener: l, addr: l.Addr().String(), sessions: make(chan *rawPeer, 8)}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if typ, _, err := readFrame(conn); err != nil || typ != frameOpen || writeFrame(conn, frameHello, nil) != nil {
				conn.Close()
				continue
			}
			s.sessions <- newRawPeer(conn)
		}
	}()
	return s
}

// The fixture's credit window and run cap: with a run cap of 4 a consumer
// that has taken 3 of 8 delivered values owes 3 credits it has not granted.
const (
	incBuffer = 8
	incBatch  = 4
)

type streamKey struct {
	peer *rawPeer
	sid  uint32
}

// incFixture is one row's world: a scripted peer serving the integers 1, 2,
// 3, … on two addresses, a Dialer, and a pipe over them whose first
// incarnation, old, has been sent 8 values and has had 3 taken.
type incFixture struct {
	t     *testing.T
	a, b  *scriptedListener
	d     *Dialer
	p     *RemotePipe
	prev  *RemotePipe // the pipe a Refresh left behind
	old   *muxRx
	peers []*rawPeer // every session accepted and not yet killed
	peer  *rawPeer   // the session carrying the current incarnation; nil when there is none
	sid   uint32
	sent  int // how far the served sequence has got: the next value is sent+1
	taken int // how many values the consumer has taken
	// balance is each stream's credit as its server holds it: the OPEN's
	// grant plus every CREDIT, less every value sent. The §3B bound is that
	// none ever exceeds the window.
	balance map[streamKey]int
	// quiet is set while nothing may name the current stream: a frame on its
	// id then is a late event that reached the wrong incarnation.
	quiet bool
}

func newIncFixture(t *testing.T) *incFixture {
	f := &incFixture{t: t, a: listenScripted(t), b: listenScripted(t), d: &Dialer{}, balance: map[streamKey]int{}}
	cfg := Config{Buffer: incBuffer, Batch: incBatch, Recover: true, RecoverWait: 5 * time.Second}
	f.p = f.d.Open(f.a.addr, "ints", nil, cfg)
	f.p.StartEager()
	f.reopened(f.a)
	f.send(8)
	f.take(3)
	f.old = f.p.cur
	return f
}

// await reads what peer's client has sent up to the first frame of type
// typ, keeping the credit ledger on the way.
func (f *incFixture) await(peer *rawPeer, typ byte) rawFrame {
	f.t.Helper()
	for {
		select {
		case fr, ok := <-peer.frames:
			if !ok {
				f.t.Fatalf("connection closed before a %s frame", frameName(typ))
			}
			key := streamKey{peer, fr.sid}
			if f.quiet && key == (streamKey{f.peer, f.sid}) {
				f.t.Errorf("a late event put a %s frame on the current stream", frameName(fr.typ))
			}
			switch fr.typ {
			case frameOpen:
				open, err := parseOpen(fr.payload)
				if err != nil {
					f.t.Fatalf("OPEN: %v", err)
				}
				f.balance[key] = int(open.credit)
			case frameCredit:
				n, _ := parseCredit(fr.payload)
				if f.balance[key] += int(n); f.balance[key] > incBuffer {
					f.t.Errorf("stream %d granted a window of %d, above Buffer %d", fr.sid, f.balance[key], incBuffer)
				}
			}
			if fr.typ == typ {
				return fr
			}
		case <-time.After(5 * time.Second):
			f.t.Fatalf("no %s frame within 5s", frameName(typ))
		}
	}
}

// barrier returns once every session's client has handled what the test
// wrote and the test has seen what the client wrote before that: a PONG is
// ordered after both.
func (f *incFixture) barrier() {
	f.t.Helper()
	for _, peer := range f.peers {
		peer.Write(appendMuxFrame(nil, framePing, 0, nil))
		f.await(peer, framePong)
	}
}

// reopened takes the next session l accepted — or, with l nil, stays on
// the current one — and reads the OPEN of the incarnation that begins
// there: the current stream from now on, at the position the OPEN asks for.
func (f *incFixture) reopened(l *scriptedListener) *openReq {
	f.t.Helper()
	if l != nil {
		select {
		case f.peer = <-l.sessions:
			f.peers = append(f.peers, f.peer)
		case <-time.After(5 * time.Second):
			f.t.Fatal("no session dialed within 5s")
		}
	}
	fr := f.await(f.peer, frameOpen)
	open, _ := parseOpen(fr.payload)
	f.sid, f.sent = fr.sid, int(open.skip)
	if open.mode == openResume {
		at, err := strconv.Atoi(string(open.blob))
		if err != nil {
			f.t.Fatalf("resume blob %q is not one this peer issued", open.blob)
		}
		f.sent += at
	}
	return open
}

// send serves the next n values as one run on the current stream.
func (f *incFixture) send(n int) {
	f.t.Helper()
	key := streamKey{f.peer, f.sid}
	if f.balance[key] < n {
		f.t.Fatalf("script error: %d values against a balance of %d", n, f.balance[key])
	}
	f.balance[key] -= n
	run := make([][]byte, n)
	for i := range run {
		f.sent++
		run[i], _ = wire.Marshal(value.NewInt(int64(f.sent)))
	}
	f.peer.Write(appendMuxFrame(nil, frameValues, f.sid, wire.AppendBatch(nil, run)))
}

// take draws n values from the pipe: the next n of the sequence, in order.
func (f *incFixture) take(n int) {
	f.t.Helper()
	within(f.t, 5*time.Second, "take", func() {
		for _, got := range drainInts(f.t, f.p, n) {
			if f.taken++; got != int64(f.taken) {
				f.t.Errorf("value %d, want %d", got, f.taken)
			}
		}
	})
}

// kill severs the current session from the server's side and returns once
// the client has torn its end down.
func (f *incFixture) kill() {
	f.p.mu.Lock()
	sess := f.p.cur.sess
	f.p.mu.Unlock()
	f.dropPeer(f.peer)
	<-sess.done
}

func (f *incFixture) dropPeer(peer *rawPeer) {
	peer.close()
	for i, p := range f.peers {
		if p == peer {
			f.peers = append(f.peers[:i], f.peers[i+1:]...)
		}
	}
	f.peer = nil
}

// nextAcross starts the Next that finds the stream dead and reopens it, and
// returns what to call once the script has served the reopened stream a
// value: it waits for that Next and checks it returned the next value.
func (f *incFixture) nextAcross() (landed func()) {
	next := make(chan int64, 1)
	go func() {
		v, _ := f.p.Next()
		n, _ := value.ToInteger(v) // nil, and so 0, when the Next failed
		i, _ := n.Int64()
		next <- i
	}()
	return func() {
		f.t.Helper()
		select {
		case got := <-next:
			if f.taken++; got != int64(f.taken) {
				f.t.Errorf("the Next across the reopen returned %d, want %d", got, f.taken)
			}
		case <-time.After(5 * time.Second):
			f.t.Fatal("the Next across the reopen did not return within 5s")
		}
	}
}

// state is everything about the pipe a late event must leave alone.
func (f *incFixture) state() string {
	s := ""
	for _, p := range []*RemotePipe{f.p, f.prev} {
		if p == nil {
			continue
		}
		p.mu.Lock()
		s += fmt.Sprintf("cur=%p redial=%v err=%v results=%d snap=%q@%d refusal=%q",
			p.cur, p.redial != nil, p.err, p.Size(), p.lastSnap, p.lastSnapAt, p.snapReason)
		if p.cur != nil {
			s += fmt.Sprintf(" debt=%d queued=%d", p.cur.debt, p.cur.out.Len())
		}
		p.mu.Unlock()
		s += "\n"
	}
	return s
}

// incEnds: every way an incarnation ends, each leaving the fixture on what
// follows it — a live incarnation, or none.
var incEnds = []struct {
	name string
	end  func(f *incFixture)
}{
	{"Stop", func(f *incFixture) {
		f.p.Stop()
		f.await(f.peer, frameCancel)
		f.peer = nil
	}},
	{"Restart", func(f *incFixture) {
		f.p.Restart()
		f.p.StartEager()
		f.reopened(nil)
		f.taken = 0
	}},
	{"Refresh", func(f *incFixture) {
		f.prev, f.p = f.p, f.p.Refresh().(*RemotePipe)
		f.p.StartEager()
		f.reopened(nil)
		f.taken = 0
	}},
	{"deadline", func(f *incFixture) {
		f.old.expire()
		if err := f.p.Err(); err != ErrDeadline {
			f.t.Fatalf("Err = %v after the deadline, want ErrDeadline", err)
		}
		f.p.Restart()
		f.p.StartEager()
		f.reopened(nil)
		f.taken = 0
	}},
	{"kill and recover", func(f *incFixture) {
		f.kill()
		f.take(5) // what the dead stream had delivered drains first
		landed := f.nextAcross()
		if open := f.reopened(f.a); open.mode != openNamed || open.skip != 8 {
			f.t.Fatalf("recovery OPEN mode %d skip %d, want a replay past 8", open.mode, open.skip)
		}
		f.send(1)
		landed()
	}},
	{"Migrate", func(f *incFixture) {
		moved := make(chan error, 1)
		go func() { moved <- f.p.Migrate(f.b.addr) }()
		source := f.peer
		f.await(source, frameSnapReq)
		source.Write(appendMuxFrame(nil, frameSnapshot, f.sid, snapshotPayload(8, true, []byte("8"))))
		f.await(source, frameCancel)
		if open := f.reopened(f.b); open.mode != openResume || open.skip != 0 {
			f.t.Fatalf("migration OPEN mode %d skip %d, want a resume at the snapshot", open.mode, open.skip)
		}
		if err := <-moved; err != nil {
			f.t.Fatalf("Migrate: %v", err)
		}
	}},
	{"failed start", func(f *incFixture) {
		f.kill()
		f.a.Close()
		f.p.Restart()
		f.p.StartEager()
		if f.p.Err() == nil {
			f.t.Fatal("a start with nothing listening left no error")
		}
		f.taken = 0
	}},
}

// incLate: everything the previous incarnation can still say. arm runs
// before the end — a credit grant is captured under the incarnation it was
// counted on — and returns what happens after it.
var incLate = []struct {
	name string
	arm  func(f *incFixture) (fire func())
}{
	{"CREDIT", func(f *incFixture) func() {
		captured, swapped, flushed := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var paused atomic.Bool
		testHookFlushPause = func() {
			if paused.CompareAndSwap(false, true) {
				close(captured)
				<-swapped
			}
		}
		go func() { defer close(flushed); f.old.flushCredits(false) }()
		<-captured
		return func() { close(swapped); <-flushed; testHookFlushPause = nil }
	}},
	{"SNAPSHOT", func(f *incFixture) func() {
		return func() { f.old.onSnapshot(snapshotPayload(3, true, []byte("3"))) }
	}},
	{"ERR", func(f *incFixture) func() {
		return func() { f.old.onErr(errPayload(ClassProducer, "late")) }
	}},
	{"connection loss", func(f *incFixture) func() {
		return func() { f.old.fail(fmt.Errorf("%w: late", errConnLost)) }
	}},
	{"deadline timer", func(f *incFixture) func() {
		return func() { f.old.expire() }
	}},
}

// finish drives the pipe to its end — the rest of the sequence and a clean
// EOS from a live incarnation, a failing Next from none — then lets go of
// everything.
func (f *incFixture) finish() {
	f.t.Helper()
	wantErr := f.p.Err()
	if f.peer != nil {
		f.send(2)
		f.take(f.sent - f.taken)
		f.peer.Write(appendMuxFrame(nil, frameEOS, f.sid, nil))
	}
	within(f.t, 5*time.Second, "last Next", func() {
		if v, ok := f.p.Next(); ok {
			f.t.Errorf("Next past the end = %s", value.Image(v))
		}
	})
	if err := f.p.Err(); err != wantErr {
		f.t.Errorf("Err = %v at the end, was %v", err, wantErr)
	}
	f.p.Stop()
	if f.prev != nil {
		f.prev.Stop()
	}
	f.d.Close()
	for _, peer := range f.peers {
		peer.close()
	}
	f.a.Close()
	f.b.Close()
}

// incBaseline extends baseline to live-introspection handles and returns
// the check a row ends with.
func incBaseline(t *testing.T) func() {
	live := func() (n int) {
		for _, s := range inspect.Snapshot() {
			if s.Live {
				n++
			}
		}
		return n
	}
	handles, check := live(), baseline(t)
	return func() {
		t.Helper()
		check(nil)
		if n := live(); n != handles {
			t.Errorf("%d live inspect handles, %d before the row", n, handles)
		}
	}
}

// incRow runs one row: a fresh fixture for body, driven to its end
// afterwards, with everything the row took given back.
func incRow(t *testing.T, name string, body func(t *testing.T, f *incFixture)) {
	t.Run(name, func(t *testing.T) {
		check := incBaseline(t)
		f := newIncFixture(t)
		body(t, f)
		f.finish()
		check()
	})
}

func TestIncarnationTable(t *testing.T) {
	inspect.Enable()
	defer inspect.Disable()
	for _, e := range incEnds {
		for _, l := range incLate {
			incRow(t, e.name+"/"+l.name, func(t *testing.T, f *incFixture) {
				fire := l.arm(f)
				e.end(f)
				// A Migrate waiting on the current incarnation's snapshot is
				// not woken by the previous one's answer.
				var waiting chan struct{}
				f.p.mu.Lock()
				if f.p.cur != nil {
					waiting = make(chan struct{})
					f.p.cur.snapWait = waiting
				}
				f.p.mu.Unlock()
				f.barrier() // what the end itself put on the wire is behind us
				before := f.state()
				f.quiet = true
				fire()
				f.barrier()
				f.quiet = false
				if after := f.state(); after != before {
					t.Errorf("the late event reached the pipe:\nbefore %safter  %s", before, after)
				}
				select {
				case <-waiting:
					t.Error("the late event answered the current incarnation's snapshot wait")
				default:
				}
			})
		}
	}

	// The compositions a single end does not reach.
	incRow(t, "compose/kill during Migrate", func(t *testing.T, f *incFixture) {
		moved := make(chan error, 1)
		go func() { moved <- f.p.Migrate(f.b.addr) }()
		f.await(f.peer, frameSnapReq)
		f.dropPeer(f.peer) // the source dies with the question unanswered
		if open := f.reopened(f.b); open.mode != openNamed || open.skip != 8 {
			t.Fatalf("OPEN on the target mode %d skip %d, want a replay past the 3 taken and the 5 drained", open.mode, open.skip)
		}
		if err := <-moved; err != nil {
			t.Fatalf("Migrate: %v", err)
		}
	})
	incRow(t, "compose/second kill during the redial", func(t *testing.T, f *incFixture) {
		f.kill()
		f.take(5)
		landed := f.nextAcross()
		for range 2 { // the first redial's session dies as soon as its OPEN is in
			if open := f.reopened(f.a); open.skip != 8 {
				t.Fatalf("redial OPEN skip %d, want 8", open.skip)
			}
			f.dropPeer(f.peer)
		}
		f.reopened(f.a)
		f.send(1)
		landed()
	})
	incRow(t, "compose/CREDIT racing EOS", func(t *testing.T, f *incFixture) {
		fire := incLate[0].arm(f)
		f.peer.Write(appendMuxFrame(nil, frameEOS, f.sid, nil))
		f.barrier() // the stream has finished under the captured grant
		fire()
		f.barrier() // the grant went to a finished id, and the session outlived it
		if got := f.balance[streamKey{f.peer, f.sid}]; got != 3 {
			t.Errorf("the finished stream's ledger reads %d, want the 3 credits of the late grant", got)
		}
		f.take(5)
		f.peer = nil // nothing left to serve: finish wants a failing Next and no error
	})
}

// TestStaleSnapshotStaysWithItsIncarnation: Session.dispatch looks a stream
// up, lets go of the table and only then runs the handler, so a SNAPSHOT
// can be dispatched for a stream that a Restart has meanwhile reset. It
// used to land on the pipe regardless: Checkpointed reported a checkpoint
// the fresh evaluation never took, a later recovery resumed the new run
// from the old run's blob, and a Migrate waiting on the new incarnation was
// woken by the old one's answer.
func TestStaleSnapshotStaysWithItsIncarnation(t *testing.T) {
	_, addr := startServer(t, nil)
	d := testDialer(false)
	defer d.Close()
	p := d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(100)}, testConfig())
	defer p.Stop()
	within(t, 5*time.Second, "first values", func() { drainInts(t, p, 3) })
	p.mu.Lock()
	stale := p.cur
	p.mu.Unlock()
	p.Restart()
	p.StartEager()
	waiting := make(chan struct{})
	p.mu.Lock()
	p.cur.snapWait = waiting
	p.mu.Unlock()

	stale.onSnapshot(snapshotPayload(3, true, []byte("the old run's")))

	if at, ok := p.Checkpointed(); at != 0 || ok {
		t.Errorf("Checkpointed = (%d, %v) on a fresh evaluation, want (0, false)", at, ok)
	}
	select {
	case <-waiting:
		t.Error("the old incarnation's answer woke the new one's snapshot wait")
	default:
	}
}

// TestStreamIDsNeverWrap: a session's stream ids are a uint32 counted up
// from 1, and the id after the last is 0 — the connection's own, on which a
// server takes an OPEN for a protocol violation and ends the session under
// every sibling. A session that has handed out its last id takes no more
// streams, the Dialer dials the next, and the spent one retires with its
// last stream.
func TestStreamIDsNeverWrap(t *testing.T) {
	l := listenScripted(t)
	defer l.Close()
	type opened struct {
		session int
		sid     uint32
	}
	var sessions []*rawPeer
	var opens []opened
	index := map[*Session]int{} // the client's sessions, in the order it dialed them
	// serve opens a stream per pipe, all live at once, reads each OPEN off
	// the session that carries it, and only then serves each one value and
	// an EOS.
	serve := func(pipes ...*RemotePipe) {
		t.Helper()
		for _, p := range pipes {
			p.StartEager()
			p.mu.Lock()
			sess := p.cur.sess
			p.mu.Unlock()
			n, seen := index[sess]
			if !seen {
				n, index[sess] = len(sessions), len(sessions)
				sessions = append(sessions, <-l.sessions)
			}
			for fr := range sessions[n].frames {
				if fr.typ == frameOpen {
					opens = append(opens, opened{n, fr.sid})
					break
				}
			}
		}
		for i, p := range pipes {
			o := opens[len(opens)-len(pipes)+i]
			sessions[o.session].Write(appendMuxFrame(appendMuxFrame(nil, frameValues, o.sid, oneValue), frameEOS, o.sid, nil))
			within(t, 5*time.Second, "drain", func() {
				if got := drainInts(t, p, 10); len(got) != 1 || got[0] != 42 || p.Err() != nil {
					t.Errorf("stream %d delivered %v (Err %v), want [42]", o.sid, got, p.Err())
				}
			})
			p.Stop()
		}
	}
	d := &Dialer{}
	defer d.Close()
	open := func() *RemotePipe { return d.Open(l.addr, "any", nil, testConfig()) }
	serve(open())
	d.mu.Lock()
	first := d.sessions[l.addr][0]
	d.mu.Unlock()
	first.mu.Lock()
	first.nextSID = math.MaxUint32 - 1
	first.mu.Unlock()
	serve(open(), open(), open())

	want := []opened{{0, 1}, {0, math.MaxUint32}, {1, 1}, {1, 2}}
	if fmt.Sprint(opens) != fmt.Sprint(want) {
		t.Errorf("OPENs on the wire (session, stream id): %v, want %v", opens, want)
	}
	select {
	case <-first.done:
	case <-time.After(5 * time.Second):
		t.Error("the session that spent its stream ids was not retired with its last stream")
	}
	for _, peer := range sessions {
		peer.close()
	}
}

// TestStopEndsTheRedialWait: a pipe recovering from a lost server waits
// between dials on one timer, and a Stop or Restart fires it: the Next
// blocked in the recovery returns at once — the pause is set to an hour
// here — and the pipe is the Stop's or the Restart's from then on.
func TestStopEndsTheRedialWait(t *testing.T) {
	defer func(d time.Duration) { redialEvery = d }(redialEvery)
	redialEvery = time.Hour
	args := []value.V{value.NewInt(1), value.NewInt(30)}
	for _, name := range []string{"Open", "Dialer"} {
		for _, how := range []string{"Stop", "Restart"} {
			t.Run(name+"/"+how, func(t *testing.T) {
				srv, addr := startServer(t, nil)
				cfg := testConfig()
				cfg.Recover = true
				cfg.RecoverWait = time.Hour
				d := testDialer(false)
				p := constructors(d)[name](addr, "range", args, cfg)
				// A server's Close waits for its connections: the pipe and the
				// pool let go of theirs first.
				back := NewServer()
				defer func() { p.Stop(); d.Close(); back.Close() }()
				within(t, 5*time.Second, "first values", func() { drainInts(t, p, 3) })
				srv.listener.Close() // the server goes down, its connections with it, and stays down
				p.KillConn()
				next := make(chan bool, 1)
				go func() {
					for { // what the dead stream had delivered, then the recovery
						if _, ok := p.Next(); !ok {
							next <- ok
							return
						}
					}
				}()
				eventually(t, "the recovery pausing between dials", func() bool {
					p.mu.Lock()
					defer p.mu.Unlock()
					return p.redial != nil
				})
				if how == "Stop" {
					p.Stop()
				} else {
					p.Restart()
				}
				select {
				case <-next:
				case <-time.After(5 * time.Second):
					t.Fatalf("Next still blocked in the redial wait 5s after %s", how)
				}
				if err := p.Err(); err != nil {
					t.Errorf("Err = %v after %s, want nil", err, how)
				}
				// The server comes back on the same address: a stopped pipe
				// stays stopped and dials nothing; a restarted one starts over.
				back.Register("range", func(args []value.V) (core.Gen, error) {
					return core.IntRange(int64(value.MustInt(args[0])), int64(value.MustInt(args[1]))), nil
				})
				if _, err := back.Start(addr); err != nil {
					t.Fatalf("restart server on %s: %v", addr, err)
				}
				if size := p.Size(); how == "Restart" && size != 0 {
					t.Errorf("Size = %d after Restart, want 0", size)
				}
				within(t, 5*time.Second, "Next after "+how, func() {
					got := drainInts(t, p, 2)
					if how == "Stop" && (len(got) != 0 || back.Served() != 0) {
						t.Errorf("a stopped pipe delivered %v and opened %d streams", got, back.Served())
					}
					if how == "Restart" && fmt.Sprint(got) != "[1 2]" {
						t.Errorf("a restarted pipe delivered %v, want a fresh evaluation", got)
					}
				})
			})
		}
	}
}
