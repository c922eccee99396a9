package remote

import (
	"errors"
	"sync"
	"time"

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
// pipe gets a private Dialer (cap 1, the pipe's Config.Heartbeat and
// Config.DialTimeout) whose session ends with the pipe's stream. How many
// streams share a connection is the Dialer's business, never the wire's.
//
// The zero value is ready to use. A Dialer is safe for concurrent use.
type Dialer struct {
	// StreamsPerConn caps logical streams per session; a new connection is
	// dialed when every pooled session is full. <= 0 selects
	// DefaultStreamsPerConn.
	StreamsPerConn int
	// Heartbeat is the per-connection PING interval; <= 0 selects
	// DefaultHeartbeat. Liveness is per connection: one timer however many
	// streams the session carries, and the Config.Heartbeat of the pipes
	// opened through this Dialer is not consulted.
	Heartbeat time.Duration
	// DialTimeout bounds session establishment (TCP dial + handshake);
	// <= 0 selects DefaultDialTimeout. As with Heartbeat, it is this field
	// and not Config.DialTimeout that governs a pooled pipe.
	DialTimeout time.Duration

	// private marks the Dialer behind one package-level pipe: its sessions
	// carry that pipe's one stream and close when it ends.
	private bool

	mu       sync.Mutex
	sessions map[string][]*Session
	closed   bool
}

// privateDialer is the Dialer a package-level Open or OpenSource pipe
// owns: one stream per connection, liveness and dial bound from cfg.
func privateDialer(cfg Config) *Dialer {
	return &Dialer{StreamsPerConn: 1, Heartbeat: cfg.Heartbeat, DialTimeout: cfg.DialTimeout, private: true}
}

func (d *Dialer) streamsPerConn() int {
	if d.StreamsPerConn <= 0 {
		return DefaultStreamsPerConn
	}
	return d.StreamsPerConn
}

func (d *Dialer) heartbeat() time.Duration {
	if d.Heartbeat <= 0 {
		return DefaultHeartbeat
	}
	return d.Heartbeat
}

func (d *Dialer) dialTimeout() time.Duration {
	if d.DialTimeout <= 0 {
		return DefaultDialTimeout
	}
	return d.DialTimeout
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
	limit := d.streamsPerConn()
	live := d.sessions[addr][:0]
	var pick *Session
	for _, s := range d.sessions[addr] {
		select {
		case <-s.done:
			continue // dead: prune
		default:
		}
		live = append(live, s)
		if pick == nil && s.tryReserve(limit) {
			pick = s
		}
	}
	d.sessions[addr] = live
	if pick != nil {
		return pick, nil
	}
	s, err := dialSession(d, addr)
	if err != nil {
		return nil, err
	}
	s.tryReserve(limit)
	d.sessions[addr] = append(d.sessions[addr], s)
	return s, nil
}

// drop forgets a dead session; its teardown calls this.
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
