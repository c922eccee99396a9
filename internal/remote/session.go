package remote

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/combine"
	"junicon/internal/inspect"
	"junicon/internal/queue"
	"junicon/internal/telemetry"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// Sessions: one TCP connection carrying many logical streams (the wire
// format is frame.go's package comment). A single shared writer goroutine
// per connection coalesces all streams' frames into large writes — the
// batched pipe's Nagle-style batching, stretched across the whole
// connection — credit accounting stays per stream, so the §3B buffer bound
// throttles each producer independently, and PING/PONG liveness runs once
// per connection on stream id 0.
//
// The receive side is coalesced the same way: each end's demux loop reads
// through a frameReader, which takes whatever the peer's flushes delivered
// in one Read and parses every frame in it, arming the liveness deadline
// once per Read rather than once per frame. A frame's payload is a view
// into that reader's buffer and is gone at the next read, so the loops
// decode (or, for an OPEN the stream keeps, copy) before reading on.

// Session-level telemetry. The flush histogram is the headline: how many
// bytes each coalesced write carried tells you whether the shared writer
// is actually amortizing syscalls across streams.
var (
	cMuxFlushes = telemetry.NewCounter("remote.mux.flushes")
	hMuxFlush   = telemetry.NewHistogram("remote.mux.flush_bytes")
	gMuxSess    = telemetry.NewGauge("remote.mux.sessions")
	cMuxStreams = telemetry.NewCounter("remote.mux.streams_total")
)

// muxSessions counts live sessions process-wide (both ends), mirrored
// into the gauge when telemetry is on.
var muxSessions atomic.Int64

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
	ih   *inspect.Handle // the session handle: the writer's visible state
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
// flush onto the connection. The blocked-put bracket around conn.Write is
// what makes a stuck connection diagnosable — the session handle sitting
// in blocked-put past the stall threshold is the shared writer wedged on a
// peer that stopped reading.
type flushWriter struct{ m *muxIO }

func (f flushWriter) Write(batch []byte) (int, error) {
	m := f.m
	m.ih.BlockedPut()
	n, err := m.conn.Write(batch)
	m.ih.Running()
	m.ih.Produced(1) // one flush; touches lastActive for staleness
	if telemetry.On() {
		cMuxFlushes.Inc()
		hMuxFlush.Observe(int64(len(batch)))
	}
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

// muxRx is the client-side receive state of one logical stream on a
// session: the session's single read goroutine demultiplexes frames for
// every stream, so what a stream's reader needs between frames lives here.
type muxRx struct {
	p        *RemotePipe
	epoch    uint64 // the pipe incarnation this stream is
	sid      uint32
	stream   uint64 // telemetry stream ID (the OPEN's, stitching traces)
	label    string // span label, captured at open (addr can change later)
	out      queue.Queue[value.V]
	ih       *inspect.Handle
	done     chan struct{}
	received atomic.Int64
	start    time.Time
}

// fail records err as the stream's, unless the pipe has moved on to a
// later incarnation.
func (rx *muxRx) fail(err error) { rx.p.failEpoch(err, rx.epoch) }

// close completes the stream's local state. Exactly-once is guaranteed by
// the demux table: an rx is only ever reachable through it, and finish
// removes it before closing.
func (rx *muxRx) close() {
	close(rx.done)
	rx.out.Close()
	rx.ih.Close()
	if rx.stream != 0 {
		telemetry.EmitSpan(rx.stream, telemetry.KindStreamEnd, rx.label, rx.received.Load(), rx.start)
	}
}

// Session is one multiplexed connection on the client side: the shared
// writer, the demultiplexing read loop, the per-connection heartbeat, and
// the table of live logical streams.
type Session struct {
	addr string
	id   uint64 // connection id: labels, /debug/streams grouping
	hb   time.Duration
	io   *muxIO
	ih   *inspect.Handle
	d    *Dialer
	done chan struct{}

	mu      sync.Mutex
	streams map[uint32]*muxRx
	pending int // reserved-but-not-yet-opened slots (Dialer cap accounting)
	nextSID uint32
	closed  bool

	vals []value.V // VALUES decode scratch; read goroutine only
}

// dialSession dials addr and performs the handshake. A server that answers
// ERR — wrong protocol version, connection limit — is reported as the
// *RemoteError it sent: nothing is retried and no verdict is kept.
func dialSession(d *Dialer, addr string) (*Session, error) {
	conn, err := net.DialTimeout("tcp", addr, d.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	id := telemetry.NextStream()
	hello := openReq{mode: openMux, credit: uint64(d.streamsPerConn()), stream: id}
	if err := writeFrame(conn, frameOpen, hello.marshal()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: session open %s: %w", addr, err)
	}
	conn.SetReadDeadline(time.Now().Add(d.dialTimeout()))
	typ, payload, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: session open %s: %w", addr, err)
	}
	switch typ {
	case frameHello:
	case frameErr:
		conn.Close()
		return nil, &RemoteError{Msg: string(payload)}
	default:
		conn.Close()
		return nil, fmt.Errorf("remote: session open %s: unexpected %s frame", addr, frameName(typ))
	}
	conn.SetReadDeadline(time.Time{})
	s := &Session{
		addr:    addr,
		id:      id,
		hb:      d.heartbeat(),
		d:       d,
		done:    make(chan struct{}),
		streams: make(map[uint32]*muxRx),
	}
	s.ih = inspect.Register(id, inspect.KindSession, "session:"+addr)
	s.ih.SetConn(id)
	s.io = newMuxIO(conn, s.ih)
	if n := muxSessions.Add(1); telemetry.On() {
		gMuxSess.Set(n)
	}
	go s.readLoop()
	go s.pingLoop()
	return s, nil
}

// tryReserve claims a stream slot under limit, counting live and claimed
// slots both, so concurrent opens cannot overshoot the streams-per-conn
// cap; openStream consumes the claim.
func (s *Session) tryReserve(limit int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.streams)+s.pending >= limit {
		return false
	}
	s.pending++
	return true
}

// openStream registers the stream's receive state and enqueues its OPEN
// (or RESUME). rx must be fully armed before the call: frames may land
// the moment the OPEN reaches the wire.
func (s *Session) openStream(rx *muxRx, typ byte, payload []byte) (uint32, error) {
	s.mu.Lock()
	if s.pending > 0 {
		s.pending--
	}
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: session closed", errConnLost)
	}
	s.nextSID++
	sid := s.nextSID
	rx.sid = sid
	s.streams[sid] = rx
	s.mu.Unlock()
	if telemetry.On() {
		cMuxStreams.Inc()
	}
	if err := s.io.enqueue(typ, sid, payload); err != nil {
		s.mu.Lock()
		delete(s.streams, sid)
		s.mu.Unlock()
		return 0, err
	}
	return sid, nil
}

// finish completes one logical stream: remove it from the demux table and
// close its local state. Late frames for the id simply miss the table. A
// package-level pipe's private session ends with its stream.
func (s *Session) finish(sid uint32) {
	s.mu.Lock()
	rx := s.streams[sid]
	delete(s.streams, sid)
	s.mu.Unlock()
	if rx != nil {
		rx.close()
	}
	if s.d.private {
		s.Close()
	}
}

// closeStream cancels one logical stream (consumer-side Stop): a
// best-effort CANCEL so the server releases its producer promptly, then
// local completion. Siblings on the session are untouched. A stream that
// already left the demux table (EOS, ERR, teardown) needs no CANCEL —
// its server producer is gone, and skipping the frame keeps the
// stop-after-drain path off the wire entirely.
func (s *Session) closeStream(sid uint32) {
	s.mu.Lock()
	_, live := s.streams[sid]
	s.mu.Unlock()
	if !live {
		return
	}
	s.io.enqueue(frameCancel, sid, nil)
	s.finish(sid)
}

// Kill severs the connection abruptly — the chaos hook. Every stream on
// the session fails with connection loss, exactly as a crashed peer
// looks.
func (s *Session) Kill() { s.io.conn.Close() }

// Close fails open streams and closes the connection. The Dialer calls
// this on Close; streams ending normally never do.
func (s *Session) Close() {
	s.teardown(fmt.Errorf("%w: session closed", errConnLost))
}

// teardown fails every open stream and retires the session. Idempotent;
// runs from the read loop (connection loss or protocol violation) or
// Close.
func (s *Session) teardown(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	streams := s.streams
	s.streams = make(map[uint32]*muxRx)
	s.mu.Unlock()
	s.io.fail(err)
	for _, rx := range streams {
		rx.fail(err)
		rx.close()
	}
	s.ih.Close()
	if n := muxSessions.Add(-1); telemetry.On() {
		gMuxSess.Set(n)
	}
	close(s.done)
	s.d.drop(s.addr, s)
}

// readLoop demultiplexes inbound frames onto the per-stream receive
// state. Stream id 0 is connection liveness; everything else dispatches
// by id, and ids missing from the table (finished streams) are dropped —
// a server flush can legitimately race a cancel.
func (s *Session) readLoop() {
	// A peer silent for several heartbeat intervals is lost: PONGs answer
	// our PINGs, so a fill normally returns at least once per interval.
	fr := newFrameReader(s.io.conn, 4*s.hb)
	defer fr.release()
	var ferr error
loop:
	for {
		typ, sid, payload, err := fr.readMux()
		if err != nil {
			ferr = fmt.Errorf("%w: %v", errConnLost, err)
			break
		}
		if sid == 0 {
			switch typ {
			case framePing:
				s.io.enqueue(framePong, 0, nil)
			case framePong:
			default:
				ferr = fmt.Errorf("remote: unexpected session-level %s frame", frameName(typ))
				break loop
			}
			continue
		}
		s.mu.Lock()
		rx := s.streams[sid]
		s.mu.Unlock()
		if rx == nil {
			continue
		}
		if !s.handleStreamFrame(rx, typ, payload) {
			s.finish(sid)
		}
	}
	s.teardown(ferr)
}

// handleStreamFrame applies one inbound frame to a logical stream. Returns
// false when the stream is finished (EOS, ERR, consumer gone, malformed
// frame).
//
// The put into the stream's bounded queue cannot stall the demux loop in
// a conforming exchange: the §3B credit protocol guarantees the server
// never has more values in flight than the client's queue has room for,
// so one slow consumer's stream fills its own window and stalls its own
// producer (on the server, in acquire) — never its siblings' frames.
func (s *Session) handleStreamFrame(rx *muxRx, typ byte, payload []byte) bool {
	switch typ {
	case frameValue:
		v, err := wire.Unmarshal(payload)
		if err != nil {
			rx.fail(fmt.Errorf("remote: malformed value frame: %w", err))
			return false
		}
		rx.received.Add(1)
		if rx.stream != 0 && telemetry.On() {
			cClientValues.Inc()
		}
		if rx.out.Put(v) != nil {
			s.io.enqueue(frameCancel, rx.sid, nil)
			return false
		}
		rx.ih.Produced(1)
	case frameValues:
		var err error
		s.vals, err = wire.UnmarshalBatchInto(s.vals[:0], payload, wire.DefaultLimits)
		if err != nil {
			rx.fail(fmt.Errorf("remote: malformed batch frame: %w", err))
			return false
		}
		rx.received.Add(int64(len(s.vals)))
		if rx.stream != 0 && telemetry.On() {
			cClientValues.Add(int64(len(s.vals)))
		}
		if _, err := rx.out.PutBatch(s.vals); err != nil {
			s.io.enqueue(frameCancel, rx.sid, nil)
			return false
		}
		rx.ih.Produced(int64(len(s.vals)))
	case frameEOS:
		return false
	case frameSnapshot:
		produced, ok, rest, err := parseSnapshot(payload)
		if err != nil {
			rx.fail(err)
			return false
		}
		rx.p.noteSnapshot(produced, ok, rest)
	case frameErr:
		rx.fail(&RemoteError{Msg: string(payload)})
		return false
	case framePing, framePong:
		// liveness belongs to stream 0; tolerated on a stream id
	default:
		rx.fail(fmt.Errorf("remote: unexpected %s frame", frameName(typ)))
		return false
	}
	return true
}

// pingLoop keeps the connection alive — one heartbeat per connection,
// however many streams it carries.
func (s *Session) pingLoop() {
	t := time.NewTicker(s.hb)
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
