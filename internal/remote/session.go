package remote

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/combine"
	"junicon/internal/inspect"
	"junicon/internal/telemetry"
	"junicon/internal/value"
)

// Sessions: one TCP connection carrying many logical streams (the wire
// format is frame.go's package comment). A single shared writer goroutine
// per connection coalesces all streams' frames into large writes — the
// batched pipe's Nagle-style batching, stretched across the whole
// connection — credit accounting stays per stream, so the §3B buffer bound
// throttles each producer independently, and PING/PONG liveness runs once
// per connection on stream id 0.
//
// The receive side is coalesced the same way: the session loop reads
// through a frameReader, which takes whatever the peer's flushes delivered
// in one Read and parses every frame in it, arming the liveness deadline
// once per Read rather than once per frame. A frame's payload is a view
// into that reader's buffer and is gone at the next read, so handlers
// decode (or, for an OPEN the stream keeps, copy) before returning.

// Session-level telemetry. The flush histogram is the headline: how many
// bytes each coalesced write carried tells you whether the shared writer
// is actually amortizing syscalls across streams. muxSessions counts live
// sessions process-wide (both ends); remote.mux.sessions is a view of it.
var (
	hMuxFlush   = telemetry.NewHistogram("remote.mux.flush_bytes")
	muxSessions atomic.Int64
	_           = telemetry.NewGauge("remote.mux.sessions", muxSessions.Load)
)

// DefaultStreamsPerConn caps the logical streams a Dialer multiplexes
// onto one session before dialing another connection.
const DefaultStreamsPerConn = 256

// sessionPendingMax bounds the shared writer's pending buffer. When the
// connection cannot drain this much, enqueue blocks — the per-connection
// backpressure the watchdog diagnoses as conn-backpressure.
var sessionPendingMax = 8 << 20

// muxIO is a session's shared write side, symmetric between client and
// server: frames from every stream append to one combine.Writer, whose
// single writer goroutine hands whatever gathered to the kernel in one
// Write — frames from concurrent streams coalesce into large writes
// exactly as a batched pipe coalesces values into runs.
type muxIO struct {
	conn net.Conn
	ih   *inspect.Handle // the session's record: the writer's visible state
	w    *combine.Writer
}

func newMuxIO(conn net.Conn, ih *inspect.Handle) *muxIO {
	m := &muxIO{conn: conn, ih: ih}
	m.w = combine.New(flushWriter{m}, sessionPendingMax)
	return m
}

// enqueue appends one multiplexed frame and wakes the writer. It blocks
// while the pending buffer is over sessionPendingMax — the connection is
// not draining, so every producer on it stalls together (the watchdog's
// conn-backpressure cause).
func (m *muxIO) enqueue(typ byte, sid uint32, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("remote: %s payload %d exceeds MaxFrame", frameName(typ), len(payload))
	}
	hdr := muxHeader(typ, sid, len(payload))
	if err := m.w.Append(hdr[:], payload); err != nil {
		return err
	}
	countTx(muxHeaderLen + len(payload))
	return nil
}

// flushWriter is what the combining writer writes through: one coalesced
// flush onto the connection. The put bracket around conn.Write is what
// makes a stuck connection diagnosable — the session record sitting
// in blocked-put past the stall threshold is the shared writer wedged on a
// peer that stopped reading.
type flushWriter struct{ m *muxIO }

func (f flushWriter) Write(batch []byte) (int, error) {
	m := f.m
	m.ih.BlockedPut()
	n, err := m.conn.Write(batch)
	m.ih.Produced(1) // one flush (remote.mux.flushes); touches lastActive for staleness
	m.ih.Observe(hMuxFlush, int64(len(batch)))
	if err != nil {
		err = fmt.Errorf("%w: %v", errConnLost, err)
	}
	return n, err
}

// fail poisons the writer and severs the connection: blocked enqueues
// return err, and a writer wedged in conn.Write is unblocked by the
// close.
func (m *muxIO) fail(err error) {
	m.w.Fail(err)
	m.conn.Close()
}

// stream is what a session's table holds under a stream id: the server's
// served, the client's muxRx.
type stream interface {
	// end releases the stream once it has left the table. err is the
	// session's death; nil means the stream ended by itself (EOS, ERR,
	// CANCEL) and its siblings live on.
	end(err error)
}

// A handler applies one inbound frame to the live stream it names. It
// reports whether that finished the stream, which then leaves the table;
// a non-nil err is a violation of the protocol and ends the session.
//
// No handler blocks the loop. On the server a frame is a credit deposit, a
// flag or a cancel; on the client the put into the stream's bounded queue
// cannot stall in a conforming exchange, since the §3B credit protocol
// never lets the server have more in flight than that queue has room for:
// a slow consumer stalls its own producer, never its siblings' frames.
type handler func(st stream, payload []byte) (finished bool, err error)

// on adapts a method of one role's stream type to the table's signature.
func on[S stream](f func(S, []byte) (bool, error)) handler {
	return func(st stream, payload []byte) (bool, error) { return f(st.(S), payload) }
}

// role is everything that differs between the two ends of a session.
type role struct {
	// frames maps a frame type to what it does to a live stream. A type
	// with no handler is not this end's to receive, on any stream id: it
	// ends the session.
	frames *[256]handler
	// orphan is handed an accepted frame whose stream id is not in the
	// table: on the server an OPEN there creates the stream. Everything
	// else, and everything on the client (nil), is the tail of a finished
	// stream and is dropped.
	orphan func(s *Session, typ byte, sid uint32, payload []byte)
}

// Session is one multiplexed connection, at either end: the shared writer,
// the demultiplexing read loop, stream-0 liveness, the table of live
// streams, and the teardown that fails them together.
type Session struct {
	io   *muxIO
	role *role
	id   uint64        // connection id: labels, /debug/streams grouping
	idle time.Duration // a peer silent this long is lost
	done chan struct{} // closed by teardown
	// producers counts the goroutines the session owns: on the serving
	// end, a producer per stream being served plus those parked on parked
	// for the next OPEN. Teardown closes parked and returns only when every
	// producer has exited.
	producers sync.WaitGroup
	parked    chan *served // unbuffered; the session loop is its one sender
	peer      string       // the remote address, for logs and labels

	mu      sync.Mutex
	streams map[uint32]stream
	closed  bool

	// The dialing end allocates stream ids up to last and keeps the
	// Dialer's cap; a package-level pipe's own session hands out one id.
	pending int // reserved-but-not-yet-opened slots (Dialer cap accounting)
	nextSID uint32
	last    uint32

	vals []value.V // VALUES decode scratch; read goroutine only
}

// newSession wraps a connection whose handshake is done.
func newSession(conn net.Conn, r *role, ih *inspect.Handle, idle time.Duration) *Session {
	muxSessions.Add(1)
	return &Session{
		io:      newMuxIO(conn, ih),
		role:    r,
		idle:    idle,
		done:    make(chan struct{}),
		parked:  make(chan *served),
		streams: make(map[uint32]stream),
		last:    math.MaxUint32,
	}
}

// run is the session loop: read frames until the connection or the
// protocol breaks, then tear down. It returns what broke.
func (s *Session) run() error {
	fr := newFrameReader(s.io.conn, s.idle)
	defer fr.release()
	for {
		typ, sid, payload, err := fr.readMux()
		if err != nil {
			err = fmt.Errorf("%w: %v", errConnLost, err)
		} else {
			err = s.dispatch(typ, sid, payload)
		}
		if err != nil {
			s.teardown(err)
			return err
		}
	}
}

// dispatch routes one frame: stream id 0 is the connection's liveness,
// every other id a stream looked up in the table.
func (s *Session) dispatch(typ byte, sid uint32, payload []byte) error {
	if sid == 0 {
		switch typ {
		case framePing:
			s.io.enqueue(framePong, 0, nil)
		case framePong:
		default:
			return fmt.Errorf("remote: protocol violation: %s frame on stream 0", frameName(typ))
		}
		return nil
	}
	h := s.role.frames[typ]
	if h == nil {
		return fmt.Errorf("remote: protocol violation: unexpected %s frame on stream %d", frameName(typ), sid)
	}
	s.mu.Lock()
	st := s.streams[sid]
	s.mu.Unlock()
	if st == nil {
		if s.role.orphan != nil {
			s.role.orphan(s, typ, sid, payload)
		}
		return nil
	}
	finished, err := h(st, payload)
	if finished {
		s.finish(sid, st)
	}
	return err
}

// add enters a stream into the table; false when the session is gone.
func (s *Session) add(sid uint32, st stream) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.streams[sid] = st
	}
	return !s.closed
}

// remove takes st out of the table and reports whether it was there: of
// the ways a stream can end (a terminal frame, a cancel, its producer's
// exit, teardown) exactly one finds it.
func (s *Session) remove(sid uint32, st stream) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streams[sid] != st {
		return false
	}
	delete(s.streams, sid)
	return true
}

// finish completes one stream that ended by itself: out of the table, so
// late frames for the id are orphans, then its local state released. A
// dialing session that has spent its stream ids ends with its last stream:
// a package-level pipe's private one with its only stream.
func (s *Session) finish(sid uint32, st stream) {
	if s.remove(sid, st) {
		st.end(nil)
	}
	s.mu.Lock()
	spent := s.nextSID == s.last && len(s.streams)+s.pending == 0
	s.mu.Unlock()
	if spent {
		s.Close()
	}
}

// Close fails open streams and closes the connection. The Dialer calls
// this on Close; streams ending normally never do.
func (s *Session) Close() {
	s.teardown(fmt.Errorf("%w: session closed", errConnLost))
}

// teardown fails every open stream and retires the session. Idempotent;
// runs from the session loop (connection loss or protocol violation) or
// Close. The shared writer is poisoned first, so producers blocked in
// enqueue unblock; then parked producers are released, every stream is
// ended and every producer waited for, so stream accounting is exact
// before the session's record closes.
func (s *Session) teardown(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	streams := s.streams
	s.streams = nil
	s.mu.Unlock()
	s.io.fail(err)
	close(s.parked)
	for _, st := range streams {
		st.end(err)
	}
	s.producers.Wait()
	s.io.ih.Close()
	muxSessions.Add(-1)
	close(s.done)
}

// pingLoop keeps the connection alive from the dialing end — one heartbeat
// per connection, however many streams it carries.
func (s *Session) pingLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			if s.io.enqueue(framePing, 0, nil) != nil {
				return
			}
		}
	}
}
