package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
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
	"junicon/internal/telemetry"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// Server-side stream telemetry. Credit stalls are the headline metric:
// a stall is the server's producer goroutine blocked because the client
// has consumed its whole credit window — the remote form of §3B's
// bounded queue throttling the producer, and the first thing to look at
// when a distributed pipeline underperforms.
var (
	gServerConns   = telemetry.NewGauge("remote.server.active_conns")
	gServerStreams = telemetry.NewGauge("remote.server.active_streams")
	cServerStreams = telemetry.NewCounter("remote.server.streams_total")
	cServerRefused = telemetry.NewCounter("remote.server.refused")
	cServerValues  = telemetry.NewCounter("remote.server.values")
	cCreditStalls  = telemetry.NewCounter("remote.server.credit_stalls")
	cCreditStallNs = telemetry.NewCounter("remote.server.credit_stall_ns")
	hServerFlush   = telemetry.NewHistogram("remote.server.flush_size")
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
	// of what the client advertises, bounding per-stream buffered bytes.
	MaxServerBatch = 1024
)

// A Generator constructs the generator a named OPEN serves. It is called
// once per stream with the decoded (and dereferenced) argument vector; the
// returned generator is iterated to failure on the stream's producer
// goroutine. Returning an error rejects the OPEN with an ERR frame.
type Generator func(args []value.V) (core.Gen, error)

// Server serves registered generators — and, when AllowSource is set,
// vetted Junicon source — over the remote-pipe protocol. Every stream gets
// one producer goroutine whose pace is governed entirely by the client's
// credits: the remote pipe's buffer bound throttles this goroutine exactly
// as §3B's bounded queue throttles a local pipe producer.
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
	streams atomic.Int64 // active producer goroutines
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

// lookup finds a registered generator.
func (s *Server) lookup(name string) (Generator, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gens[name]
	return g, ok
}

// ActiveConns reports currently accepted connections.
func (s *Server) ActiveConns() int { return int(s.conns.Load()) }

// ActiveStreams reports currently running producer goroutines — the
// server-side per-stream goroutine accounting.
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

// streamID renders a telemetry stream ID the way traces serialize it
// (hex), so log lines and trace events grep the same.
func streamID(id uint64) string {
	if id == 0 {
		return ""
	}
	return strconv.FormatUint(id, 16)
}

func (s *Server) maxConns() int {
	if s.MaxConns <= 0 {
		return DefaultMaxConns
	}
	return s.MaxConns
}

func (s *Server) idleTimeout() time.Duration {
	if s.IdleTimeout <= 0 {
		return DefaultIdleTimeout
	}
	return s.IdleTimeout
}

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

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
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
		if int(s.conns.Load()) >= s.maxConns() {
			// Refuse politely: drain the OPEN first so the client's write
			// never hits a reset connection, then send ERR. The client
			// surfaces the refusal via Err().
			s.log().Warn("connection refused",
				"remote", conn.RemoteAddr().String(),
				"reason", "connection limit",
				"limit", s.maxConns())
			if telemetry.On() {
				cServerRefused.Inc()
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				conn.SetReadDeadline(time.Now().Add(s.idleTimeout()))
				readFrame(conn)
				writeFrame(conn, frameErr, []byte("server at connection limit"))
			}()
			continue
		}
		s.conns.Add(1)
		if telemetry.On() {
			gServerConns.Set(s.conns.Load())
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.conns.Add(-1)
				if telemetry.On() {
					gServerConns.Set(s.conns.Load())
				}
			}()
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

// stream is the per-stream credit account shared by the session's reader
// (deposits) and the stream's producer goroutine (withdrawals).
type stream struct {
	mu        sync.Mutex
	cond      sync.Cond
	credits   uint64
	cancelled bool
	snapReq   bool // a SNAPREQ frame awaits a forced snapshot answer
}

func newStream(initial uint64) *stream {
	st := &stream{credits: initial}
	st.cond.L = &st.mu
	return st
}

// acquire blocks until one credit is available, the stream is cancelled,
// or a forced snapshot is demanded; it reports whether a credit was taken,
// whether it had to wait, and whether a SNAPREQ must be answered first
// (snap consumes the request; no credit is taken). A wait is a credit
// stall: the client's buffer bound throttling this producer across the
// wire. Checking snapReq before the credit balance guarantees a migrating
// client — which has stopped consuming — always gets its snapshot answer
// instead of the producer racing ahead on leftover credits.
func (st *stream) acquire() (ok, waited, snap bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.credits == 0 && !st.cancelled && !st.snapReq {
		waited = true
		st.cond.Wait()
	}
	if st.cancelled {
		return false, waited, false
	}
	if st.snapReq {
		st.snapReq = false
		return false, waited, true
	}
	st.credits--
	return true, waited, false
}

// available reports the current credit balance without taking any — the
// producer flushes its pending batch before a stall, not after.
func (st *stream) available() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.credits
}

func (st *stream) deposit(n uint64) {
	st.mu.Lock()
	st.credits += n
	st.cond.Broadcast()
	st.mu.Unlock()
}

func (st *stream) cancel() {
	st.mu.Lock()
	st.cancelled = true
	st.cond.Broadcast()
	st.mu.Unlock()
}

// requestSnap demands a forced snapshot from the producer (SNAPREQ).
func (st *stream) requestSnap() {
	st.mu.Lock()
	st.snapReq = true
	st.cond.Broadcast()
	st.mu.Unlock()
}

// servedStream is the session reader's control surface over one producer
// goroutine: the credit account, the on-demand flush, the teardown reason,
// and completion.
type servedStream struct {
	st        *stream
	flush     func() error
	setReason func(string)
	done      chan struct{}
}

// handleConn runs one connection. Its first frame must be the session
// OPEN at the one protocol version this package speaks; anything else —
// a stream OPEN or RESUME with no session around it, any other version —
// is answered with one ERR saying what was received and what is
// supported, and the connection is closed.
func (s *Server) handleConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(s.idleTimeout()))
	typ, payload, err := readFrame(conn)
	var hello *openReq
	if err != nil || (typ != frameOpen && typ != frameResume) {
		err = errors.New("expected OPEN frame")
	} else if hello, err = parseOpen(payload); err == nil && (typ != frameOpen || hello.mode != openMux) {
		err = fmt.Errorf("remote: a connection opens with the session OPEN of protocol version %d, got a stream %s", protocolVersion, frameName(typ))
	}
	if err != nil {
		writeFrame(conn, frameErr, []byte(err.Error()))
		s.log().Warn("connection refused",
			"remote", conn.RemoteAddr().String(),
			"reason", err.Error())
		if telemetry.On() {
			cServerRefused.Inc()
		}
		return
	}
	s.serveSession(conn, hello)
}

// openStream resolves an OPEN to the generator it names and spawns its
// producer. A rejected open (unknown generator, vet error, bad resume
// blob) answers ERR on the stream id and returns nil — it fails one
// logical stream, never the connection.
func (s *Server) openStream(mio *muxIO, sid uint32, open *openReq, remoteAddr string, connID uint64) *servedStream {
	gen, smeta, base, err := s.buildGenerator(open)
	if err != nil {
		mio.enqueue(frameErr, sid, []byte(err.Error()))
		s.log().Warn("stream refused",
			"remote", remoteAddr,
			"reason", err.Error())
		if telemetry.On() {
			cServerRefused.Inc()
		}
		return nil
	}
	return s.startStream(mio, sid, open, gen, smeta, base, remoteAddr, connID)
}

// startStream spawns the producer goroutine serving one opened stream as
// sid on the session's shared writer: iterate the generator to failure,
// one value per credit. Runtime errors and panics become ERR frames,
// mirroring pipe.Pipe's producer containment. Completion (accounting,
// unregistration, the stream-done log) rides the producer's exit, so each
// stream retires independently of its siblings.
func (s *Server) startStream(mio *muxIO, sid uint32, open *openReq, gen core.Gen, smeta checkpoint.Meta, base uint64, remoteAddr string, connID uint64) *servedStream {
	send := func(typ byte, payload []byte) error { return mio.enqueue(typ, sid, payload) }
	// The generator this stream serves, for logs and trace labels.
	what := open.name
	switch open.mode {
	case openSource:
		what = "source"
	case openResume:
		what = "resume"
	}
	st := newStream(open.credit)

	// Batched delivery: when the client advertises a batch
	// capability > 1, marshaled values accumulate in pending and ship as
	// one VALUES frame. Credit accounting stays per value — the producer
	// still acquires one credit per value before generating it, so the
	// §3B bounded-buffer backpressure is byte-for-byte the per-value
	// protocol's. The flush policy is the batched pipe's, translated to
	// the wire: fill (batch values buffered), demand (a CREDIT frame is
	// the client draining its queue — the reader flushes on arrival, and
	// a zero-credit CREDIT is a pure demand ping from a client about to
	// block), stall (credits exhausted: everything the client allows is
	// in hand, so ship it before waiting), and EOS/ERR (flush the run
	// before the terminal frame). bmu is held across the frame write so
	// racing flushes emit runs in production order; the session writer's
	// own serialization nests inside bmu. encBuf is the recycled batch
	// encoding scratch — enqueue has copied the payload when it returns,
	// so reuse across flushes is safe.
	batch := int(open.batch)
	if batch > MaxServerBatch {
		batch = MaxServerBatch
	}
	if batch <= 1 {
		batch = 0 // per-value mode
	}
	var bmu sync.Mutex
	var pending [][]byte
	var encBuf []byte
	flush := func() error {
		if batch == 0 {
			return nil
		}
		bmu.Lock()
		defer bmu.Unlock()
		if len(pending) == 0 {
			return nil
		}
		encBuf = wire.AppendBatch(encBuf[:0], pending)
		if telemetry.On() {
			hServerFlush.Observe(int64(len(pending)))
		}
		pending = pending[:0]
		return send(frameValues, encBuf)
	}
	serial := s.served.Add(1) // names the snapshot file of an unobserved stream
	s.streams.Add(1)
	opened := time.Now()
	if telemetry.On() {
		cServerStreams.Inc()
		gServerStreams.Set(s.streams.Load())
	}
	// Live-introspection handle for this stream, keyed by the client's
	// stream ID so /debug/streams on the server correlates with the
	// client's logs and traces. The credit balance is the one number a
	// stalled distributed pipeline turns on: zero + blocked-put is credit
	// starvation, which the watchdog diagnoses by name.
	var ih *inspect.Handle
	if inspect.On() {
		ih = inspect.Register(open.stream, inspect.KindRemoteServer,
			"serve:"+what+"<-"+remoteAddr)
		ih.SetCredit(int64(open.credit))
		ih.SetConn(connID)
	}
	// A resumed stream (snapshot restore or replay skip) is a recovery:
	// mark the handle so /debug/streams shows which streams survived, and
	// count replay recoveries under the same counter as snapshot restores
	// (which count inside checkpoint.Restore).
	if open.mode == openResume || open.skip > 0 {
		if open.mode != openResume {
			checkpoint.MarkRestored()
		}
		ih.NoteResumed()
	}
	// The stream ID arrived in the OPEN frame: server-side events carry
	// the client's ID, which is what stitches the two processes' traces.
	telemetry.Emit(open.stream, telemetry.KindStreamOpen, "serve:"+what, int64(open.credit))
	s.log().Info("stream open",
		"remote", remoteAddr,
		"generator", what,
		"stream", streamID(open.stream),
		"credit", open.credit)

	prodDone := make(chan struct{})
	var sent atomic.Int64
	var reason atomic.Pointer[string]
	setReason := func(r string) { reason.CompareAndSwap(nil, &r) }
	go func() {
		defer func() {
			s.streams.Add(-1)
			if telemetry.On() {
				gServerStreams.Set(s.streams.Load())
			}
			inspect.Unregister(ih)
			why := "done"
			if r := reason.Load(); r != nil {
				why = *r
			}
			telemetry.EmitSpan(open.stream, telemetry.KindStreamEnd, "serve:"+what, sent.Load(), opened)
			s.log().Info("stream done",
				"remote", remoteAddr,
				"generator", what,
				"stream", streamID(open.stream),
				"values", sent.Load(),
				"reason", why,
				"dur", time.Since(opened))
			close(prodDone)
		}()
		if ih != nil {
			// Label this goroutine with the stream ID so the watchdog can
			// pull its stack out of the goroutine profile when diagnosing a
			// stall, and bind it as the stream's producer for edge tracking.
			defer inspect.BindProducer(ih)()
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
				pprof.Labels(inspect.ProducerLabel, inspect.StreamID(ih.ID()))))
			defer pprof.SetGoroutineLabels(context.Background())
		}
		sendErr := func(msg string) {
			flush() // values produced before the error must precede it
			send(frameErr, []byte(msg))
		}
		// takeSnap checkpoints the stream between Next calls (only this
		// goroutine drives gen, so the frame is suspended and consistent)
		// and answers with one SNAPSHOT frame — the blob on success, the
		// refusal reason otherwise. The batch flush first means every
		// delivered value the snapshot accounts for precedes the marker on
		// the wire. Returns false when interval snapshotting should stop
		// (refusal is sticky; a forced SNAPREQ still always gets an answer).
		interval := open.interval
		takeSnap := func() bool {
			if flush() != nil {
				return false
			}
			total := base + open.skip + uint64(sent.Load())
			answer := func(ok bool, rest []byte) error {
				return send(frameSnapshot, snapshotPayload(total, ok, rest))
			}
			if smeta.Expr == "" {
				answer(false, []byte("named generator has no source expression to restore from"))
				return false
			}
			meta := smeta
			meta.Produced = total
			blob, serr := checkpoint.Snapshot(gen, meta)
			if serr != nil {
				answer(false, []byte(serr.Error()))
				return false
			}
			if werr := answer(true, blob); werr != nil {
				return false
			}
			if s.CheckpointDir != "" {
				snapFile := fmt.Sprintf("%016x", open.stream)
				if open.stream == 0 {
					snapFile = fmt.Sprintf("conn-%d", serial)
				}
				if perr := persistSnapshot(s.CheckpointDir, snapFile, blob); perr != nil {
					s.log().Warn("checkpoint persist failed", "file", snapFile, "err", perr.Error())
				}
			}
			return true
		}
		// Contain panics like pipe.start does: an Icon runtime error or a
		// foreign panic in a served generator must not crash the daemon —
		// it becomes an ERR frame, the remote Pipe.Err.
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					if re, ok := r.(*value.RuntimeError); ok {
						err = re
					} else {
						err = fmt.Errorf("producer panic: %v", r)
					}
				}
			}()
			// Recovery skip: replay the deterministic prefix the client
			// already delivered before its crash (or beyond its last
			// snapshot), discarding without consuming credits — the skipped
			// values were paid for by the previous incarnation's credits.
			for skipped := uint64(0); skipped < open.skip; skipped++ {
				if _, ok := gen.Next(); !ok {
					flush()
					send(frameEOS, nil)
					setReason("eos during recovery skip")
					return nil
				}
			}
			snapOK := true
			for {
				var stallStart time.Time
				if telemetry.Active() {
					stallStart = time.Now()
				}
				if batch > 0 && st.available() == 0 {
					// About to stall on credits: the client has authorized
					// nothing more, so the buffered run is as full as it can
					// get — ship it rather than sit on it.
					if flush() != nil {
						setReason("connection lost")
						return nil
					}
				}
				if ih != nil {
					ih.BlockedPut()
				}
				ok, waited, snap := st.acquire()
				if ih != nil {
					ih.Running()
					ih.SetCredit(int64(st.available()))
				}
				if waited && telemetry.Active() {
					// The client's credit window throttled us: the §3B
					// bounded-queue backpressure, observed across the wire.
					if telemetry.On() {
						cCreditStalls.Inc()
						cCreditStallNs.Add(time.Since(stallStart).Nanoseconds())
					}
					telemetry.EmitSpan(open.stream, telemetry.KindCreditStall, "serve:"+what, 0, stallStart)
				}
				if snap {
					// SNAPREQ: the migration handshake. Always answered —
					// with the blob or a refusal — so Migrate never hangs.
					takeSnap()
					continue
				}
				if !ok {
					setReason("cancelled")
					return nil
				}
				tracing := telemetry.TraceOn()
				var genStart time.Time
				if tracing {
					genStart = time.Now()
				}
				v, ok := gen.Next()
				if !ok {
					if tracing {
						telemetry.EmitSpan(open.stream, telemetry.KindFail, "serve:"+what, 0, genStart)
					}
					flush() // the final partial run precedes EOS
					send(frameEOS, nil)
					setReason("eos")
					return nil
				}
				if tracing {
					telemetry.EmitSpan(open.stream, telemetry.KindValue, "serve:"+what, sent.Load(), genStart)
				}
				data, merr := wire.Marshal(value.Deref(v))
				if merr != nil {
					// Values are marshaled at produce time, so an unencodable
					// value behaves exactly as in per-value mode: everything
					// before it is delivered (sendErr flushes), then ERR.
					sendErr("encode: " + merr.Error())
					setReason("encode error")
					return nil
				}
				var werr error
				if batch > 0 {
					bmu.Lock()
					pending = append(pending, data)
					full := len(pending) >= batch
					bmu.Unlock()
					if full {
						werr = flush()
					}
				} else {
					werr = send(frameValue, data)
				}
				if werr != nil {
					setReason("connection lost")
					return nil // connection gone; reader tears down
				}
				sent.Add(1)
				if ih != nil {
					ih.Produced(1)
				}
				if telemetry.On() {
					cServerValues.Inc()
				}
				// Interval checkpointing piggybacks on the credit cadence:
				// a snapshot lands after every interval delivered values, so
				// the client's buffer bound also bounds checkpoint lag.
				if interval > 0 && snapOK &&
					(base+open.skip+uint64(sent.Load()))%interval == 0 {
					snapOK = takeSnap()
				}
			}
		}()
		if err != nil {
			sendErr(err.Error())
			setReason("producer error: " + err.Error())
		}
	}()

	return &servedStream{st: st, flush: flush, setReason: setReason, done: prodDone}
}

// serveSession runs one connection after its handshake: one shared
// writer, one demux reader, many logical streams riding the startStream
// producers.
//
// Why the demux never head-of-line blocks: handleStreamFrame on the
// client delivers into a queue the client itself sized, and credit
// accounting guarantees the server never has more values in flight per
// stream than that queue has room for — so the per-stream Put the demux
// performs cannot stall siblings. Symmetrically here, the only per-frame
// work is a credit deposit or a cancel, both non-blocking.
func (s *Server) serveSession(conn net.Conn, hello *openReq) {
	remoteAddr := conn.RemoteAddr().String()
	// HELLO answers the handshake in its plain framing; everything after it
	// on this connection is mux-framed.
	if err := writeFrame(conn, frameHello, nil); err != nil {
		return
	}
	connID := hello.stream
	var ih *inspect.Handle
	if inspect.On() {
		ih = inspect.Register(telemetry.NextStream(), inspect.KindSession,
			"session:"+remoteAddr+" (serve)")
		ih.SetConn(connID)
	}
	muxSessions.Add(1)
	if telemetry.On() {
		gMuxSess.Set(muxSessions.Load())
	}
	mio := newMuxIO(conn, ih)
	s.log().Info("session open",
		"remote", remoteAddr,
		"conn", streamID(connID),
		"streams_hint", hello.credit)

	streams := make(map[uint32]*servedStream)
	var smu sync.Mutex
	// Finished streams are reaped lazily: each OPEN that finds the table
	// past the high-water mark sweeps out entries whose producer has
	// retired. Amortized O(1) per stream, no goroutine per stream, and the
	// table stays within 2× the live count — what a session storm of
	// millions of short streams needs.
	sweepAt := 64
	fr := newFrameReader(conn, s.idleTimeout())
	defer fr.release()
	var serr error
loop:
	for {
		typ, sid, payload, err := fr.readMux()
		if err != nil {
			serr = err
			break
		}
		if sid == 0 {
			// Connection-level liveness.
			switch typ {
			case framePing:
				mio.enqueue(framePong, 0, nil)
			case framePong:
				// Answer to our own ping; nothing to do.
			default:
				serr = errors.New("protocol violation on stream 0")
				break loop
			}
			continue
		}
		switch typ {
		case frameOpen, frameResume:
			smu.Lock()
			_, dup := streams[sid]
			smu.Unlock()
			if dup {
				serr = errors.New("duplicate stream id in OPEN")
				break loop
			}
			// parseOpen aliases args/program/expr sub-slices of its input,
			// and the reader's buffer is recycled on the next frame — copy
			// before parsing so the stream owns its open for its lifetime.
			open, perr := parseOpen(append([]byte(nil), payload...))
			if perr != nil {
				mio.enqueue(frameErr, sid, []byte(perr.Error()))
				continue
			}
			if (typ == frameResume) != (open.mode == openResume) {
				mio.enqueue(frameErr, sid, []byte("RESUME frame and resume mode must pair"))
				continue
			}
			if open.mode == openMux {
				mio.enqueue(frameErr, sid, []byte("nested session open"))
				continue
			}
			ss := s.openStream(mio, sid, open, remoteAddr, connID)
			if ss == nil {
				continue // refused; ERR already sent on sid
			}
			smu.Lock()
			streams[sid] = ss
			if len(streams) >= sweepAt {
				for id, old := range streams {
					select {
					case <-old.done:
						delete(streams, id)
					default:
					}
				}
				sweepAt = 2*len(streams) + 64
			}
			smu.Unlock()
		case frameCredit:
			n, perr := parseCredit(payload)
			if perr != nil {
				serr = errors.New("protocol violation in CREDIT")
				break loop
			}
			smu.Lock()
			ss := streams[sid]
			smu.Unlock()
			// A frame for an unknown sid is a finished stream's tail in
			// flight — ignore, per the mux framing contract.
			if ss != nil {
				ss.st.deposit(n)
				ss.flush()
			}
		case frameSnapReq:
			smu.Lock()
			ss := streams[sid]
			smu.Unlock()
			if ss != nil {
				ss.st.requestSnap()
			}
		case frameCancel:
			smu.Lock()
			ss := streams[sid]
			smu.Unlock()
			if ss != nil {
				ss.st.cancel()
			}
		default:
			serr = fmt.Errorf("protocol violation: frame %s on session", frameName(typ))
			break loop
		}
	}
	// Teardown: poison the shared writer FIRST so producers blocked in
	// enqueue unblock with an error, then cancel every stream and wait for
	// each producer so stream accounting is exact before the session
	// handle closes.
	if serr == nil {
		serr = errors.New("session closed")
	}
	mio.fail(serr)
	smu.Lock()
	live := make([]*servedStream, 0, len(streams))
	for _, ss := range streams {
		live = append(live, ss)
	}
	smu.Unlock()
	for _, ss := range live {
		ss.setReason("connection lost")
		ss.st.cancel()
	}
	for _, ss := range live {
		<-ss.done
	}
	ih.Close()
	muxSessions.Add(-1)
	if telemetry.On() {
		gMuxSess.Set(muxSessions.Load())
	}
	s.log().Info("session done",
		"remote", remoteAddr,
		"conn", streamID(connID),
		"reason", serr.Error())
}

// buildGenerator resolves an OPEN or RESUME request to the generator it
// serves, the metadata future snapshots of this stream carry, and — for a
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
		g, ok := s.lookup(open.name)
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
		// exactly like source streams, with the same vet. The "resume
		// rejected" prefix is the client's cue to drop a stale blob and
		// retry with deterministic replay instead.
		if !s.AllowSource {
			return nil, smeta, 0, fmt.Errorf("resume rejected: source streams are disabled on this server")
		}
		meta, err := checkpoint.Peek(open.blob)
		if err != nil {
			return nil, smeta, 0, fmt.Errorf("resume rejected: %w", err)
		}
		in, err := s.sourceInterp(meta.Program, meta.Expr, meta.Args)
		if err != nil {
			return nil, smeta, 0, fmt.Errorf("resume rejected: %w", err)
		}
		gen, meta, err = in.RestoreSnapshot(open.blob)
		if err != nil {
			return nil, smeta, 0, fmt.Errorf("resume rejected: %w", err)
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
// interpreter paths. Source streams run compiled (WithVM): semantically
// identical to the tree walk — the compiler falls back on anything it
// cannot lower — and it is what makes a source stream's frame a
// checkpointable continuation.
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
