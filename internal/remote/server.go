package remote

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/analyze"
	"junicon/internal/checkpoint"
	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/interp"
	"junicon/internal/parser"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// Server defaults.
const (
	// DefaultMaxConns bounds concurrently served connections — each a
	// session carrying however many streams its client multiplexes onto
	// it; excess connections are refused with an ERR frame.
	DefaultMaxConns = 64
	// DefaultIdleTimeout is how long the server waits for any client frame
	// (credits, pings, cancel) before declaring the client lost. Client
	// heartbeats arrive every DefaultHeartbeat, so a healthy stream never
	// approaches it.
	DefaultIdleTimeout = 30 * time.Second
	// MaxServerBatch caps the VALUES run the server accumulates regardless
	// of what the client asks for, bounding per-stream buffered bytes.
	MaxServerBatch = 1024
	// refusalTimeout is how long a peer being turned away at the connection
	// limit has to send its OPEN and take the ERR. MaxConns does not count
	// these connections, so they are kept short and (readFrame) small.
	refusalTimeout = 2 * time.Second
)

// A Generator constructs the generator a named OPEN serves. It is called
// once per stream with the decoded (and dereferenced) argument vector; the
// returned generator is iterated to failure on the stream's producer
// goroutine. Returning an error rejects the OPEN with an ERR frame.
type Generator func(args []value.V) (core.Gen, error)

// Server serves registered generators — and, when AllowSource is set,
// vetted Junicon source — over the remote-pipe protocol. Each stream is
// served by a producer goroutine its session owns, whose pace is governed
// entirely by the client's credits: the remote pipe's buffer bound
// throttles it exactly as §3B's bounded queue throttles a local pipe
// producer.
type Server struct {
	// AllowSource permits OPEN frames carrying Junicon source. Source is
	// gated through the internal/analyze static analyzer: programs with
	// error-level findings are refused before any evaluation.
	AllowSource bool
	// MaxConns bounds concurrent connections; <= 0 selects
	// DefaultMaxConns.
	MaxConns int
	// IdleTimeout bounds the gap between client frames; <= 0 selects
	// DefaultIdleTimeout.
	IdleTimeout time.Duration
	// CheckpointDir, when set, persists the latest checkpoint snapshot of
	// every stream that produces one (interval or SNAPREQ) to
	// <dir>/<stream>.snap via atomic rename — the durable server-side copy
	// behind junicond -checkpoint-dir. Persistence failures are logged,
	// never fatal to the stream.
	CheckpointDir string
	// Log, when set, receives structured per-connection lifecycle events
	// (stream open / done / refused) including the stream's telemetry ID,
	// so log lines correlate with trace events and client-side logs.
	Log *slog.Logger

	mu       sync.Mutex
	gens     map[string]Generator
	listener net.Listener
	closed   bool

	conns   atomic.Int64 // active connections (accepted, not yet closed)
	streams atomic.Int64 // streams being served
	served  atomic.Int64 // streams opened over the server's lifetime
	wg      sync.WaitGroup
}

// NewServer returns a server with an empty registry.
func NewServer() *Server { return &Server{gens: make(map[string]Generator)} }

// Register adds (or replaces) a named generator.
func (s *Server) Register(name string, g Generator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gens[name] = g
}

// Names returns the registered generator names, sorted.
func (s *Server) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.gens))
	for n := range s.gens {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ActiveConns reports currently accepted connections.
func (s *Server) ActiveConns() int { return int(s.conns.Load()) }

// ActiveStreams reports the streams being served — producers parked
// between streams are not counted.
func (s *Server) ActiveStreams() int { return int(s.streams.Load()) }

// Served reports the total number of streams opened.
func (s *Server) Served() int { return int(s.served.Load()) }

// log returns the configured logger, or a discard logger when none is
// set (the pre-logging default: quiet).
func (s *Server) log() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return discardLogger
}

var discardLogger = slog.New(slog.DiscardHandler)

// Start listens on addr (e.g. "127.0.0.1:0") and serves in a background
// goroutine, returning the bound address. It is the convenience entry for
// tests, benchmarks and in-process workers.
func (s *Server) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(l)
	return l.Addr(), nil
}

// Serve accepts connections on l until Close. Each connection is one
// session.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("remote: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if limit := or(s.MaxConns, DefaultMaxConns); int(s.conns.Load()) >= limit {
			// Refuse politely: drain the OPEN first so the client's write
			// never hits a reset connection, then send ERR. The client
			// surfaces the refusal via Err().
			s.refused("connection refused", conn.RemoteAddr().String(), fmt.Errorf("connection limit %d", limit))
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				conn.SetReadDeadline(time.Now().Add(refusalTimeout))
				readFrame(conn)
				writeFrame(conn, frameErr, errPayload(ClassRefused, "server at connection limit"))
			}()
			continue
		}
		s.conns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.conns.Add(-1)
			defer conn.Close()
			s.handleConn(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight streams to finish. Streams
// whose clients are alive keep running until the client closes or cancels;
// callers that need a hard stop close the clients first.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	s.wg.Wait()
	return nil
}

// handleConn runs one connection. Its first frame must be the session
// OPEN at the one protocol version this package speaks; anything else — a
// stream OPEN with no session around it, any other version, a frame over
// maxHandshake — is answered with one ERR saying what was received and
// what is supported, and the connection is closed.
func (s *Server) handleConn(conn net.Conn) {
	remoteAddr := conn.RemoteAddr().String()
	idle := or(s.IdleTimeout, DefaultIdleTimeout)
	conn.SetReadDeadline(time.Now().Add(idle))
	typ, payload, err := readFrame(conn)
	var hello *openReq
	if err != nil {
		err = fmt.Errorf("expected OPEN frame: %v", err)
	} else if typ != frameOpen {
		err = fmt.Errorf("expected OPEN frame, got %s", frameName(typ))
	} else if hello, err = parseOpen(payload); err == nil && hello.mode != openMux {
		err = fmt.Errorf("remote: a connection opens with the session OPEN of protocol version %d, got a stream OPEN", protocolVersion)
	}
	if err != nil {
		writeFrame(conn, frameErr, errPayload(ClassProtocol, err.Error()))
		s.refused("connection refused", remoteAddr, err)
		return
	}
	// HELLO answers the handshake in its plain framing; everything after it
	// on this connection is mux-framed.
	if err := writeFrame(conn, frameHello, nil); err != nil {
		return
	}
	ih := inspect.Open(0, inspect.KindSession, "session:", remoteAddr, " (serve)")
	sess := newSession(conn, &role{frames: serverFrames, orphan: s.openStream}, ih, idle)
	sess.peer = remoteAddr
	// A peer that sent no connection ID is grouped under this end's record.
	sess.id = cmp.Or(hello.stream, ih.ID())
	ih.SetConn(sess.id)
	s.log().Info("session open",
		"remote", remoteAddr,
		"conn", inspect.StreamID(sess.id),
		"streams_hint", hello.credit)
	err = sess.run()
	s.log().Info("session done",
		"remote", remoteAddr,
		"conn", inspect.StreamID(sess.id),
		"reason", err.Error())
}

// refused logs a peer or a stream turned away.
func (s *Server) refused(what, remoteAddr string, err error) {
	s.log().Warn(what, "remote", remoteAddr, "reason", err.Error())
}

// serverFrames is the serving end of a session: it accepts what a client
// says about a stream it opened. An OPEN arrives for an id outside the
// table (openStream, the role's orphan); one for a live id is a violation.
var serverFrames = &[256]handler{
	frameOpen:    on((*served).onOpen),
	frameCredit:  on((*served).onCredit),
	frameSnapReq: on((*served).onSnapReq),
	frameCancel:  on((*served).onCancel),
}

// openStream is the server role's orphan: an OPEN for an id not in the
// table resolves to the generator it names and becomes a served stream. A
// rejected open (unknown generator, vet error, bad resume blob) answers ERR
// on the stream id — it fails one logical stream, never the connection.
func (s *Server) openStream(sess *Session, typ byte, sid uint32, payload []byte) {
	if typ != frameOpen {
		return // the tail of a finished stream
	}
	// parseOpen aliases args and blob sub-slices of its input, and the
	// reader's buffer is recycled on the next frame — copy before parsing
	// so the stream owns its open for its lifetime.
	open, err := parseOpen(append([]byte(nil), payload...))
	if err == nil && open.mode == openMux {
		err = errors.New("nested session open")
	}
	class := ClassProtocol
	if err == nil {
		// A snapshot that does not restore is the client's cue to drop it
		// and retry with deterministic replay instead.
		if class = ClassRefused; open.mode == openResume {
			class = ClassResumeRejected
		}
		st := &served{srv: s, sess: sess, sid: sid, open: open}
		if st.gen, st.meta, st.base, err = s.buildGenerator(open); err == nil {
			st.start()
			return
		}
	}
	sess.io.enqueue(frameErr, sid, errPayload(class, err.Error()))
	s.refused("stream refused", sess.peer, err)
}

// served is one stream on the server: the credit account the session's
// handlers deposit into, the run of encoded values waiting for a flush,
// and the producer that turns credits into values. The producer is one of
// the session's goroutines, lent to the stream for its life (§5D's
// managed threads): the end of its run retires the stream (accounting,
// the table entry, the stream-done log), so each retires independently of
// its siblings, and the goroutine parks for the session's next OPEN.
type served struct {
	srv    *Server
	sess   *Session
	sid    uint32
	open   *openReq
	what   string // the generator served, for logs and trace labels
	gen    core.Gen
	meta   checkpoint.Meta // what this stream's snapshots carry
	base   uint64          // values a restored snapshot had already delivered
	serial int64           // names the snapshot file of an unobserved stream
	ih     *inspect.Handle
	opened time.Time
	sent   uint64 // values delivered by this incarnation; producer only

	// The credit account: the demux deposits, the producer withdraws. A
	// wait in acquire is a credit stall — the client's buffer bound
	// throttling this producer across the wire.
	mu        sync.Mutex
	cond      sync.Cond
	credits   uint64
	cancelled bool
	snapReq   bool   // a SNAPREQ awaits a forced snapshot answer
	reason    string // why the stream ended; the first to say wins

	// The run, also under mu: values are encoded into pending as they are
	// produced and ship as one VALUES frame of at most batch. Credit
	// accounting stays per value — the producer acquires one credit before
	// generating each — so the §3B bounded-buffer backpressure does not
	// depend on the run length. The flush policy is the batched pipe's,
	// translated to the wire: fill (put finds batch values buffered),
	// demand (a CREDIT frame is the client draining its queue, and a
	// zero-credit CREDIT a pure demand ping from a client about to block),
	// stall (acquire finds no credit: everything the client allows is in
	// hand) and EOS/ERR (the run precedes the terminal frame). A demand
	// that finds the run empty is kept in wanted, not dropped: the next put
	// ships at once, so a value produced after the ping reached the server
	// does not wait in the run for a fill the generator may never make;
	// ship clears it. mu is held across the frame write so racing ships —
	// the producer's and the demux's — emit runs in production order; the
	// session writer's own serialization nests inside it. The run's buffer
	// is recycled: enqueue has copied the payload when it returns.
	batch   int
	pending wire.Run
	wanted  bool
}

// start registers the stream — accounting, its record, the table — and
// hands it to a producer: one parked on the session if one is waiting,
// else a new one. The handoff is unbuffered, so the session never holds
// more producers than its peak of concurrent streams.
func (st *served) start() {
	s, open := st.srv, st.open
	switch st.what = open.name; open.mode {
	case openSource:
		st.what = "source"
	case openResume:
		st.what = "resume"
	}
	st.cond.L = &st.mu
	st.credits = open.credit
	st.batch = min(max(int(open.batch), 1), MaxServerBatch)
	st.opened = time.Now()
	st.serial = s.served.Add(1)
	s.streams.Add(1)
	// The stream's record adopts the client's stream ID from the OPEN, so
	// the server's trace and /debug/streams stitch to the client's. The
	// credit balance is the one number a stalled distributed pipeline turns
	// on: zero + blocked-put is credit starvation, which the watchdog
	// diagnoses by name; the label names the client it serves.
	st.ih = inspect.Open(open.stream, inspect.KindRemoteServer, "serve:", st.what, "<-", st.sess.peer)
	st.ih.SetCredit(int64(open.credit))
	st.ih.SetConn(st.sess.id)
	// A resumed stream (snapshot restore or replay skip) is a recovery:
	// mark the record so /debug/streams shows which streams survived, and
	// count replay recoveries under the same counter as snapshot restores
	// (which count inside checkpoint.Restore).
	if open.mode == openResume || open.skip > 0 {
		if open.mode != openResume {
			checkpoint.MarkRestored()
		}
		st.ih.NoteResumed()
	}
	s.log().LogAttrs(context.Background(), slog.LevelInfo, "stream open",
		slog.String("remote", st.sess.peer),
		slog.String("generator", st.what),
		slog.String("stream", inspect.StreamID(open.stream)),
		slog.Uint64("credit", open.credit))
	// Only the session loop, which is where this runs, tears the session
	// down: the table is open, parked is open, and the wait for producers
	// has not begun.
	st.sess.add(st.sid, st)
	select {
	case st.sess.parked <- st:
	default:
		st.sess.producers.Add(1)
		go st.sess.producer(st)
	}
}

// The frames a client sends about a live stream.

func (st *served) onOpen([]byte) (bool, error) {
	return false, errors.New("remote: protocol violation: OPEN for a stream id in use")
}

// testHookCreditShipped, when set, runs after onCredit has shipped (or
// found nothing to ship) — the point the demand-ping regression test
// orders a generator's first yield after.
var testHookCreditShipped func()

func (st *served) onCredit(payload []byte) (bool, error) {
	n, err := parseCredit(payload)
	if err != nil {
		return false, err
	}
	st.mu.Lock()
	st.credits += n
	st.cond.Broadcast()
	// A grant is the client draining its queue: demand, which a run in
	// hand meets now and an empty one with the next put.
	st.wanted = true
	st.ship()
	st.mu.Unlock()
	if testHookCreditShipped != nil {
		testHookCreditShipped()
	}
	return false, nil
}

func (st *served) onSnapReq([]byte) (bool, error) {
	st.mu.Lock()
	st.snapReq = true
	st.cond.Broadcast()
	st.mu.Unlock()
	return false, nil
}

func (st *served) onCancel([]byte) (bool, error) { return true, nil }

// end stops the producer: the client cancelled, or the session is gone.
func (st *served) end(err error) {
	why := "cancelled"
	if err != nil {
		why = "connection lost"
	}
	st.mu.Lock()
	st.cancelled = true
	st.cond.Broadcast()
	st.mu.Unlock()
	st.setReason(why)
}

// setReason records why the stream ended unless someone already has, and
// returns the reason that stands.
func (st *served) setReason(why string) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.reason == "" {
		st.reason = why
	}
	return st.reason
}

// acquire blocks until one credit is available, the stream is cancelled,
// or a forced snapshot is demanded; it reports whether a credit was taken,
// or whether instead a SNAPREQ must be answered first (snap consumes the
// request; no credit is taken). Checking snapReq before the credit balance
// guarantees a migrating client — which has stopped consuming — always
// gets its snapshot answer instead of the producer racing ahead on
// leftover credits. A wait here is a credit stall — the client's buffer
// bound throttling this producer across the wire, §3B's backpressure — and
// the record's put bracket is exactly that wait. Finding no credit, it
// first ships the run: the client has authorized nothing more, so the run
// is as full as it can get — it goes before the stall, not after. lost
// reports that the ship failed.
func (st *served) acquire() (ok, snap, lost bool) {
	st.mu.Lock()
	if st.credits == 0 && st.ship() != nil {
		st.mu.Unlock()
		return false, false, true
	}
	stalled := st.credits == 0 && !st.cancelled && !st.snapReq
	if stalled {
		st.ih.BlockedPut()
	}
	for st.credits == 0 && !st.cancelled && !st.snapReq {
		st.cond.Wait()
	}
	switch {
	case st.cancelled:
	case st.snapReq:
		st.snapReq, snap = false, true
	default:
		st.credits--
		ok = true
	}
	left := st.credits
	st.mu.Unlock()
	if stalled {
		st.ih.Running()
	}
	st.ih.SetCredit(int64(left))
	return ok, snap, false
}

func (st *served) send(typ byte, payload []byte) error {
	return st.sess.io.enqueue(typ, st.sid, payload)
}

// put encodes one value into the run and ships the run once it is full
// or a demand is waiting for it. A value that does not encode leaves the
// run as it was and is reported as bad; err is the ship's failure.
func (st *served) put(v value.V) (bad, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if bad = st.pending.Append(v); bad == nil && (st.wanted || st.pending.Len() >= st.batch) {
		err = st.ship()
	}
	return bad, err
}

// flush is ship for a caller that does not hold st.mu.
func (st *served) flush() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ship()
}

// ship sends the run, if there is one, as one VALUES frame, which meets
// any demand waiting. Caller holds st.mu.
func (st *served) ship() error {
	if st.pending.Len() == 0 {
		return nil
	}
	err := st.send(frameValues, st.pending.Payload())
	st.pending.Reset()
	st.wanted = false
	return err
}

// terminate ships the run and then the stream's last frame: the values
// produced before an EOS or an ERR must precede it.
func (st *served) terminate(typ byte, payload []byte, why string) {
	st.flush()
	st.send(typ, payload)
	st.setReason(why)
}

// position is the stream's absolute delivered count: what a restored
// snapshot had delivered, what a recovery skipped, what went out here.
func (st *served) position() uint64 { return st.base + st.open.skip + st.sent }

// snapshot checkpoints the stream between Next calls (only the producer
// drives gen, so the frame is suspended and consistent) and answers with
// one SNAPSHOT frame — the blob on success, the refusal reason otherwise.
// The flush first means every delivered value the snapshot accounts for
// precedes the marker on the wire. It returns false when interval
// snapshotting should stop (refusal is sticky; a forced SNAPREQ still
// always gets an answer).
func (st *served) snapshot() bool {
	if st.flush() != nil {
		return false
	}
	answer := func(ok bool, rest []byte) error {
		return st.send(frameSnapshot, snapshotPayload(st.position(), ok, rest))
	}
	if st.meta.Expr == "" {
		answer(false, []byte("named generator has no source expression to restore from"))
		return false
	}
	meta := st.meta
	meta.Produced = st.position()
	blob, err := checkpoint.Snapshot(st.gen, meta)
	if err != nil {
		answer(false, []byte(err.Error()))
		return false
	}
	if answer(true, blob) != nil {
		return false
	}
	if dir := st.srv.CheckpointDir; dir != "" {
		file := fmt.Sprintf("%016x", st.open.stream)
		if st.open.stream == 0 {
			file = fmt.Sprintf("conn-%d", st.serial)
		}
		if err := persistSnapshot(dir, file, blob); err != nil {
			st.srv.log().Warn("checkpoint persist failed", "file", file, "err", err.Error())
		}
	}
	return true
}

// producer is a goroutine of the session: it serves st, then each
// stream start hands it, until teardown closes parked. Between streams it
// holds no stream, no label and no binding.
func (sess *Session) producer(st *served) {
	defer sess.producers.Done()
	for ; st != nil; st = <-sess.parked {
		st.run()
	}
}

// run serves one stream on a producer goroutine: produce until the stream
// ends, report a producer error as the stream's ERR, retire.
func (st *served) run() {
	defer st.retire()
	defer st.ih.Bind()()
	if err := st.produce(); err != nil {
		st.terminate(frameErr, errPayload(ClassProducer, err.Error()), "producer error: "+err.Error())
	}
}

// retire is the producer's exit: the stream leaves the table and the
// server's accounting, and says why.
func (st *served) retire() {
	s := st.srv
	st.sess.remove(st.sid, st)
	s.streams.Add(-1)
	st.ih.Close()
	s.log().LogAttrs(context.Background(), slog.LevelInfo, "stream done",
		slog.String("remote", st.sess.peer),
		slog.String("generator", st.what),
		slog.String("stream", inspect.StreamID(st.open.stream)),
		slog.Uint64("values", st.sent),
		slog.String("reason", st.setReason("done")),
		slog.Duration("dur", time.Since(st.opened)))
}

// produce iterates the generator to failure, one value per credit. Panics
// are contained like pipe.start does: an Icon runtime error or a foreign
// panic in a served generator must not crash the daemon — it is returned,
// and becomes the ERR frame that is the remote Pipe.Err.
func (st *served) produce() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*value.RuntimeError); ok {
				err = re
			} else {
				err = fmt.Errorf("producer panic: %v", r)
			}
		}
	}()
	// Recovery skip: replay the deterministic prefix the client already
	// delivered before its crash (or beyond its last snapshot), discarding
	// without consuming credits — the skipped values were paid for by the
	// previous incarnation's credits.
	for skipped := uint64(0); skipped < st.open.skip; skipped++ {
		if _, ok := st.gen.Next(); !ok {
			st.terminate(frameEOS, nil, "eos during recovery skip")
			return nil
		}
	}
	snapOK := true
	for {
		ok, snap, lost := st.acquire()
		if lost {
			st.setReason("connection lost")
			return nil
		}
		if snap {
			// SNAPREQ: the migration handshake. Always answered — with the
			// blob or a refusal — so Migrate never hangs.
			st.snapshot()
			continue
		}
		if !ok {
			return nil // cancelled; whoever cancelled said why
		}
		v, ok := st.gen.Next()
		if !ok {
			st.terminate(frameEOS, nil, "eos")
			return nil
		}
		// Values are encoded at produce time, so everything before an
		// unencodable one is delivered, then ERR.
		bad, err := st.put(v)
		if bad != nil {
			st.terminate(frameErr, errPayload(ClassProducer, "encode: "+bad.Error()), "encode error")
			return nil
		}
		if err != nil {
			st.setReason("connection lost")
			return nil // connection gone; the session loop tears down
		}
		st.sent++
		st.ih.Produced(1)
		// Interval checkpointing piggybacks on the credit cadence: a
		// snapshot lands after every interval delivered values, so the
		// client's buffer bound also bounds checkpoint lag.
		if every := st.open.interval; every > 0 && snapOK && st.position()%every == 0 {
			snapOK = st.snapshot()
		}
	}
}

// buildGenerator resolves an OPEN to the generator it serves, the metadata future snapshots of this stream carry, and — for a
// restored snapshot — the count of values its generator already delivered
// in a previous incarnation (the stream's absolute position is base +
// skip + values sent here).
func (s *Server) buildGenerator(open *openReq) (gen core.Gen, smeta checkpoint.Meta, base uint64, err error) {
	args, err := decodeArgs(open.args)
	if err != nil {
		return nil, smeta, 0, err
	}
	switch open.mode {
	case openNamed:
		s.mu.Lock()
		g, ok := s.gens[open.name]
		s.mu.Unlock()
		if !ok {
			return nil, smeta, 0, fmt.Errorf("unknown generator %q (registered: %s)", open.name, strings.Join(s.Names(), ", "))
		}
		gen, err = g(args)
		return gen, checkpoint.Meta{Name: open.name, Args: args}, 0, err
	case openSource:
		if !s.AllowSource {
			return nil, smeta, 0, fmt.Errorf("source streams are disabled on this server")
		}
		in, err := s.sourceInterp(open.program, open.expr, args)
		if err != nil {
			return nil, smeta, 0, err
		}
		gen, err = in.EvalGen(open.expr)
		return gen, checkpoint.Meta{Program: open.program, Expr: open.expr, Args: args}, 0, err
	case openResume:
		// A snapshot blob carries arbitrary source, so restoring is gated
		// exactly like source streams, with the same vet.
		if !s.AllowSource {
			return nil, smeta, 0, fmt.Errorf("source streams are disabled on this server")
		}
		meta, err := checkpoint.Peek(open.blob)
		if err != nil {
			return nil, smeta, 0, err
		}
		in, err := s.sourceInterp(meta.Program, meta.Expr, meta.Args)
		if err != nil {
			return nil, smeta, 0, err
		}
		gen, meta, err = in.RestoreSnapshot(open.blob)
		if err != nil {
			return nil, smeta, 0, err
		}
		return gen, checkpoint.Meta{Program: meta.Program, Expr: meta.Expr, Name: meta.Name, Args: meta.Args}, meta.Produced, nil
	}
	return nil, smeta, 0, fmt.Errorf("unknown OPEN mode %d", open.mode)
}

func decodeArgs(data []byte) ([]value.V, error) {
	if len(data) == 0 {
		return nil, nil
	}
	v, err := wire.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("malformed argument list: %w", err)
	}
	l, ok := v.(*value.List)
	if !ok {
		return nil, fmt.Errorf("argument payload is %s, want list", value.TypeOf(v))
	}
	return l.Elems(), nil
}

// sourceInterp vets and loads a source stream's evaluation environment.
// The analyzer gate refuses error-level findings exactly as the
// translator does (migrating statically wrong code across the network is
// as worthless as compiling it); warnings are tolerated, as on the
// interpreter paths. Source streams run compiled (WithVM), every unit of
// them (compile refuses only an Env without a scan environment,
// DefineGlobal or native table): semantically identical to the tree walk,
// and what makes a source stream's frame a checkpointable continuation.
func (s *Server) sourceInterp(program, expr string, args []value.V) (*interp.Interp, error) {
	known := func(name string) bool { return name == "args" }
	if program != "" {
		prog, err := parser.ParseProgram(program)
		if err != nil {
			return nil, fmt.Errorf("parse program: %w", err)
		}
		if diags := analyze.Program(prog, analyze.Options{Known: known}); analyze.HasErrors(diags) {
			return nil, fmt.Errorf("vet rejected program: %s", diagErrors(diags))
		}
	}
	e, err := parser.ParseExpression(expr)
	if err != nil {
		return nil, fmt.Errorf("parse expression: %w", err)
	}
	in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
	if program != "" {
		if err := in.LoadProgram(program); err != nil {
			return nil, fmt.Errorf("load program: %w", err)
		}
	}
	// The expression may use names the program defines; vet it with those
	// known. Reusing the loaded interpreter's globals is cheaper than
	// plumbing a symbol table out of the analyzer.
	knownExpr := func(name string) bool {
		if name == "args" {
			return true
		}
		_, ok := in.Global(name)
		return ok
	}
	if diags := analyze.Expr(e, analyze.Options{Known: knownExpr}); analyze.HasErrors(diags) {
		return nil, fmt.Errorf("vet rejected expression: %s", diagErrors(diags))
	}
	in.Define("args", value.NewList(args...))
	return in, nil
}

// persistSnapshot writes the stream's latest checkpoint durably: write to
// a temp file, then atomically rename over <dir>/<name>.snap, so a crash
// mid-write never leaves a torn snapshot where a recovery would read it.
func persistSnapshot(dir, name string, blob []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, name+".snap"))
}

func diagErrors(diags []analyze.Diag) string {
	var msgs []string
	for _, d := range diags {
		if d.Severity == analyze.Error {
			msgs = append(msgs, d.String())
		}
	}
	return strings.Join(msgs, "; ")
}
