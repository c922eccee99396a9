package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"junicon/internal/inspect"
	"junicon/internal/telemetry"
	"junicon/internal/value"
)

// Dialer pools multiplexed sessions per address: pipes opened through it
// share connections, up to StreamsPerConn logical streams each, instead
// of dialing one TCP connection per stream. A client holding thousands of
// concurrent remote generators pays ceil(n/cap) sockets, read loops and
// heartbeat timers rather than n — the "engines as lightweight agents
// behind one channel" economics the mesh roadmap needs.
//
// The package-level Open and OpenSource go through the same type: each
// pipe gets a private Dialer (cap 1, default heartbeat and dial bound)
// whose session ends with the pipe's stream. How many streams share a
// connection is the Dialer's business, never the wire's.
//
// The zero value is ready to use. A Dialer is safe for concurrent use.
type Dialer struct {
	// StreamsPerConn caps logical streams per session; a new connection is
	// dialed when every pooled session is full. <= 0 selects
	// DefaultStreamsPerConn.
	StreamsPerConn int
	// Heartbeat is the per-connection PING interval; <= 0 selects
	// DefaultHeartbeat. A server silent for four intervals is lost.
	// Liveness is per connection: one timer however many streams the
	// session carries.
	Heartbeat time.Duration
	// DialTimeout bounds session establishment (TCP dial + handshake);
	// <= 0 selects DefaultDialTimeout.
	DialTimeout time.Duration

	// private marks the Dialer behind one package-level pipe: its sessions
	// carry that pipe's one stream and close when it ends.
	private bool

	mu       sync.Mutex
	sessions map[string][]*Session
	closed   bool
}

// or returns v, or def when v is not positive: every "<= 0 selects the
// default" knob of Config, Dialer and Server.
func or[T ~int | ~int64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// Open is remote.Open through the pool: the returned pipe opens its
// stream on a shared session. Semantics are otherwise identical.
func (d *Dialer) Open(addr, name string, args []value.V, cfg Config) *RemotePipe {
	return newPipe(d, addr, cfg, openReq{mode: openNamed, name: name}, args)
}

// OpenSource is remote.OpenSource through the pool.
func (d *Dialer) OpenSource(addr, program, expr string, args []value.V, cfg Config) *RemotePipe {
	return newPipe(d, addr, cfg, openReq{mode: openSource, program: program, expr: expr}, args)
}

// session returns a pooled session for addr with one stream slot
// reserved, dialing a new connection only when every live session is at
// the cap. Dialing happens under the pool lock deliberately: a thousand
// concurrent opens must produce ceil(n/cap) connections, not a thundering
// herd of dials.
func (d *Dialer) session(addr string) (*Session, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, errors.New("remote: dialer closed")
	}
	if d.sessions == nil {
		d.sessions = make(map[string][]*Session)
	}
	limit := or(d.StreamsPerConn, DefaultStreamsPerConn)
	for _, s := range d.sessions[addr] {
		if s.tryReserve(limit) { // never a dead one's: drop is about to forget it
			return s, nil
		}
	}
	s, err := dialSession(d, addr)
	if err != nil {
		return nil, err
	}
	s.tryReserve(limit)
	d.sessions[addr] = append(d.sessions[addr], s)
	return s, nil
}

// drop forgets a dead session; the end of its loop calls this.
func (d *Dialer) drop(addr string, dead *Session) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ss := d.sessions[addr]
	for i, s := range ss {
		if s == dead {
			d.sessions[addr] = append(ss[:i], ss[i+1:]...)
			return
		}
	}
}

// Sessions reports the live pooled session count across all addresses —
// the socket count the pool is holding.
func (d *Dialer) Sessions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, ss := range d.sessions {
		for _, s := range ss {
			select {
			case <-s.done:
			default:
				n++
			}
		}
	}
	return n
}

// Close fails every pooled session — open streams on them error with
// connection loss — and marks the dialer unusable.
func (d *Dialer) Close() {
	d.mu.Lock()
	d.closed = true
	var all []*Session
	for _, ss := range d.sessions {
		all = append(all, ss...)
	}
	d.sessions = nil
	d.mu.Unlock()
	for _, s := range all {
		s.Close()
	}
}

// dialSession dials addr and performs the handshake. A server that answers
// ERR — wrong protocol version, connection limit — is reported as the
// *RemoteError it sent: nothing is retried and no verdict is kept.
func dialSession(d *Dialer, addr string) (*Session, error) {
	timeout := or(d.DialTimeout, DefaultDialTimeout)
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	// The connection ID travels in the session OPEN whether or not this
	// process observes: the server groups and logs the connection's streams
	// by it. The session's record, opened before the handshake, adopts it.
	id := telemetry.NextStream()
	ih := inspect.Open(id, inspect.KindSession, "session:", addr)
	hello := openReq{mode: openMux, credit: uint64(or(d.StreamsPerConn, DefaultStreamsPerConn)), stream: id}
	var typ byte
	var payload []byte
	if err = writeFrame(conn, frameOpen, hello.marshal()); err == nil {
		conn.SetReadDeadline(time.Now().Add(timeout))
		typ, payload, err = readFrame(conn)
	}
	switch {
	case err != nil:
		err = fmt.Errorf("remote: session open %s: %w", addr, err)
	case typ == frameErr:
		err = parseErr(payload)
	case typ != frameHello:
		err = fmt.Errorf("remote: session open %s: unexpected %s frame", addr, frameName(typ))
	}
	if err != nil {
		ih.Close()
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Time{})
	ih.SetConn(id)
	// A peer silent for several heartbeat intervals is lost: PONGs answer
	// our PINGs, so a fill normally returns at least once per interval.
	hb := or(d.Heartbeat, DefaultHeartbeat)
	s := newSession(conn, &clientRole, ih, 4*hb)
	s.id = id
	if d.private {
		s.last = 1
	}
	go func() {
		s.run()
		d.drop(addr, s)
	}()
	go s.pingLoop(hb)
	return s, nil
}

// tryReserve claims a stream slot under limit, counting live and claimed
// slots both, so concurrent opens cannot overshoot the streams-per-conn
// cap; openStream consumes the claim. A session whose stream ids are spent
// has no slot to give — the id after the last is 0, the connection's own —
// so the Dialer dials the next one.
func (s *Session) tryReserve(limit int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.streams)+s.pending >= limit || uint64(s.nextSID)+uint64(s.pending) >= uint64(s.last) {
		return false
	}
	s.pending++
	return true
}

// openStream enters the stream's receive state into the table under a
// fresh id and enqueues its OPEN. rx must be fully armed before the call:
// frames may land the moment the OPEN reaches the wire. On an error rx is
// in no table and has been ended.
func (s *Session) openStream(rx *muxRx, open *openReq) error {
	s.mu.Lock()
	s.pending--
	s.nextSID++
	rx.sess, rx.sid = s, s.nextSID
	s.mu.Unlock()
	if !s.add(rx.sid, rx) {
		rx.end(nil)
		return fmt.Errorf("%w: session closed", errConnLost)
	}
	err := s.io.enqueue(frameOpen, rx.sid, open.marshal())
	if err != nil && s.remove(rx.sid, rx) {
		rx.end(nil)
	}
	return err
}

// closeStream cancels one logical stream (consumer-side Stop): a
// best-effort CANCEL so the server releases its producer promptly, then
// local completion. Siblings on the session are untouched. A stream that
// already left the table (EOS, ERR, teardown) needs no CANCEL — its server
// producer is gone, and skipping the frame keeps the stop-after-drain path
// off the wire entirely.
func (s *Session) closeStream(sid uint32) {
	s.mu.Lock()
	st := s.streams[sid]
	s.mu.Unlock()
	if st != nil {
		s.io.enqueue(frameCancel, sid, nil)
		s.finish(sid, st)
	}
}
