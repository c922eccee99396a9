// Package remote serves generators across process boundaries: it is the
// network transport behind remote pipes. The paper's pipe |>e proxies a
// co-expression through a bounded blocking queue to another thread (§3B);
// this package keeps that contract — lazy, demand-driven, terminated by
// Icon failure — and swaps the in-memory queue for a framed TCP protocol,
// the same move as Tarau's "logic engines as interactors" (engines exposed
// as answer-serving agents over a protocol).
//
// # Protocol
//
// One TCP connection is a session carrying many logical streams. The
// client opens it with a handshake of two small frames in plain
// [type][len] framing — an OPEN in mode openMux, answered by HELLO (or by
// ERR and a close: wrong protocol version, connection limit, a handshake
// longer than maxHandshake). From the byte after HELLO every frame in both
// directions carries a stream id: [type:1][stream:4 BE][len:4 BE][payload].
// Stream id 0 is the connection itself; every other id is one stream,
// opened by the client with an OPEN whose mode names what to serve — a
// registered generator (plus arguments), a vetted Junicon source program,
// or a checkpoint snapshot to restore:
//
//	client                          server
//	  | OPEN{mux, streams hint}       |   plain framing
//	  |------------------------------>|
//	  |<------------------------ HELLO|   mux framing from here on
//	  | sid: OPEN{named|source|resume, args, credit, batch, interval, skip}
//	  |------------------------------>|
//	  |<----------- sid: VALUES{n>=1} |   (at most `credit` values unacknowledged)
//	  | sid: CREDIT{n}                |   (n consumed values; n=0 is pure demand)
//	  |------------------------------>|
//	  |<------------------ sid: EOS   |   (generator failed = clean end)
//	  |<------ sid: ERR{class, msg}   |   (producer error, refused OPEN)
//	  | sid: CANCEL                   |   (consumer stopped the pipe)
//	  | 0: PING / PONG in both gaps   |   (liveness, once per connection)
//
// Every fact has one encoding: a value travels in a VALUES run (of one,
// when the stream's batch is 1), a resume is an OPEN mode, and why a stream
// failed is the class byte leading its ERR payload, never its prose.
//
// A package-level Open owns a private session carrying its one stream and
// closes the connection when the stream ends; a Dialer pools sessions per
// address and shares each among up to StreamsPerConn streams. An ERR or
// EOS ends one stream, never its siblings; frames for an id that has
// finished are dropped, since a flush can race a cancel; a frame type the
// receiving end's table (session.go) does not hold ends the session.
//
// Flow control is credit-based and per stream: the server may have at most
// as many unacknowledged values in flight as the client has granted
// credits, and the client grants exactly its pipe buffer up front then one
// credit per consumed value (coalesced into one CREDIT per batch). The
// pipe's buffer bound therefore throttles the remote producer exactly as
// §3B's bounded queue throttles a local threaded co-expression — a
// RemotePipe with buffer 1 degenerates to a remote future/M-var, just as
// locally — and one slow consumer fills its own window, never the
// connection's demux loop.
//
// Durability rides the same cadence. With a checkpoint interval in its
// OPEN the server emits a SNAPSHOT (blob or refusal) after every interval
// delivered values, so the credit window also bounds checkpoint lag;
// SNAPREQ forces one immediately (the migration handshake). A lost stream
// is reopened in mode openResume from the last snapshot, or with an OPEN
// whose skip count replays the delivered prefix.
//
// Liveness is per connection: the client pings stream 0 every heartbeat
// and treats a server silent for several intervals as lost; the server
// drops a client silent for IdleTimeout. Either fails every stream on the
// session.
//
// Failure propagates faithfully: the serving generator's Icon failure
// becomes EOS (the remote pipe's Next fails, Err() == nil); a producer
// runtime error or panic becomes ERR (Next fails, Err() reports it),
// mirroring pipe.Pipe.Err. Connection loss, deadline expiry and malformed
// frames also surface through Err() — never as a hang.
//
// # Framing cost
//
// A stream should cost its messages, not the framing around them. Frames
// are written through a coalescing writer (one Write per batch that
// gathered, session.go) and read through a frameReader (one Read and one
// liveness-deadline arm per batch that arrived, below). Only the two
// handshake frames are read exact-length, by readFrame, so that not a byte
// is buffered across the switch of framing — and none allocated for a
// length over maxHandshake.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/telemetry"
	"junicon/internal/wire"
)

// Wire-level telemetry: every frame written or read in this process
// (either end, handshake or session) counts frames and bytes when
// telemetry is enabled — the disabled path is one atomic load per frame.
// remote.rx.reads counts the frameReader's
// fills (Read calls on the connection), so frames_rx ÷ rx.reads is the
// receive-side coalescing factor, the mirror of frames_tx ÷ mux.flushes.
var (
	cFramesTx = telemetry.NewCounter("remote.frames_tx")
	cBytesTx  = telemetry.NewCounter("remote.bytes_tx")
	cFramesRx = telemetry.NewCounter("remote.frames_rx")
	cRxReads  = telemetry.NewCounter("remote.rx.reads")
)

func countTx(n int) {
	if telemetry.On() {
		cFramesTx.Inc()
		cBytesTx.Add(int64(n))
	}
}

func countRx() {
	if telemetry.On() {
		cFramesRx.Inc()
	}
}

// Frame types. Append-only, like the wire codec's tag space: 0x03 (a lone
// value, now a VALUES run of one) and 0x0b (a resume, now an OPEN mode)
// were retired with protocol v5 and stay unassigned.
const (
	frameOpen   byte = 0x01 // client→server: open a stream
	frameCredit byte = 0x02 // client→server: grant n more credits
	frameEOS    byte = 0x04 // server→client: generator failed (clean end)
	frameErr    byte = 0x05 // either: fatal stream error, payload = class + message
	framePing   byte = 0x06 // either: liveness probe
	framePong   byte = 0x07 // either: probe answer
	frameCancel byte = 0x08 // client→server: stop the stream
	frameValues byte = 0x09 // server→client: a run of wire-encoded results
	// Durable-generator frames. SNAPSHOT piggybacks on the
	// credit-grant cadence — the server emits one after every checkpoint
	// interval of delivered values, so §3B flow control bounds checkpoint
	// lag exactly as it bounds queue depth. SNAPREQ forces an immediate
	// snapshot (the migration handshake).
	frameSnapshot byte = 0x0a // server→client: checkpoint blob or refusal
	frameSnapReq  byte = 0x0c // client→server: demand a snapshot now
	// frameHello is the server's answer to the session OPEN (mode openMux):
	// from the byte after it, both directions use multiplexed framing.
	frameHello byte = 0x0d
)

// MaxFrame bounds a single frame payload; larger length prefixes are
// treated as a protocol error, protecting both sides from hostile peers.
const MaxFrame = 32 << 20

// maxHandshake bounds the payload of the two plain-framed handshake frames
// (a session OPEN is a dozen bytes, its answer a HELLO or a one-line ERR):
// a peer that claims more is refused on the header, before any allocation.
const maxHandshake = 4 << 10

var frameNames = [256]string{
	frameOpen: "OPEN", frameCredit: "CREDIT", frameEOS: "EOS", frameErr: "ERR",
	framePing: "PING", framePong: "PONG", frameCancel: "CANCEL", frameValues: "VALUES",
	frameSnapshot: "SNAPSHOT", frameSnapReq: "SNAPREQ", frameHello: "HELLO",
}

// frameName makes protocol errors readable.
func frameName(t byte) string {
	if name := frameNames[t]; name != "" {
		return name
	}
	return fmt.Sprintf("frame %#x", t)
}

// writeFrame emits one handshake-framed frame in one Write: 1-byte type,
// 4-byte big-endian payload length, payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	b := binary.BigEndian.AppendUint32([]byte{typ}, uint32(len(payload)))
	if _, err := w.Write(append(b, payload...)); err != nil {
		return err
	}
	countTx(len(b) + len(payload))
	return nil
}

// readFrame reads one handshake-framed frame with exact-length reads,
// rejecting a length prefix over maxHandshake before allocating. It
// consumes not one byte past its frame, so the connection can switch to
// multiplexed framing — and be handed to a frameReader — right after it.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxHandshake {
		return 0, nil, fmt.Errorf("remote: handshake frame length %d exceeds %d", n, maxHandshake)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	countRx()
	return hdr[0], payload, nil
}

// fillSize is the frameReader's fill buffer: one Read takes whatever the
// peer's coalesced flushes have delivered, up to this much. Sized from the
// remote.mux.flush_bytes histogram: a flush is a few hundred bytes at the
// median (386 in the committed ledger's remote-stream row) and 55 KiB at
// p99 under a 1000-stream junistorm, so one fill takes all but the rarest
// flush whole, and several of the usual ones when the reader is behind.
const fillSize = 64 << 10

// fillPool recycles fill buffers across connections; fillOut counts those
// currently taken, so tests can show every one comes back.
var (
	fillPool = sync.Pool{New: func() any { return new([fillSize]byte) }}
	fillOut  atomic.Int64
)

// frameReader is the receive side of a connection: it fills one pooled
// fixed-size buffer with a single Read and parses as many frames as that
// Read delivered, so a burst of frames the peer's writer coalesced costs
// one syscall, not two per frame. A payload that fits the buffer is
// returned as a view into it; a larger one is read straight from the
// connection into a grown side buffer (one copy, as before). Either way
// the payload is valid only until the next read — exactly the lifetime
// the decode paths need, since wire.Unmarshal copies everything it keeps
// and OPEN payloads (whose parse aliases the buffer) are copied explicitly
// by the session demux.
//
// The reader also owns the liveness window: with idle > 0 it arms the
// connection's read deadline before every Read — once per call that can
// block, not once per frame — so "peer silent for idle" still surfaces as
// the Read's timeout error. One reader per connection read loop, released
// when the loop exits.
type frameReader struct {
	r      io.Reader
	dl     readDeadliner // nil: no liveness window
	idle   time.Duration
	buf    *[fillSize]byte
	lo, hi int    // buf[lo:hi] is read but not yet parsed
	big    []byte // payloads larger than the fill buffer
	err    error  // latched Read error, surfaced once the bytes before it are consumed
}

type readDeadliner interface{ SetReadDeadline(time.Time) error }

// newFrameReader takes a fill buffer from the pool; release hands it back.
// idle > 0 requires r to have SetReadDeadline (a net.Conn).
func newFrameReader(r io.Reader, idle time.Duration) *frameReader {
	f := &frameReader{r: r, idle: idle, buf: fillPool.Get().(*[fillSize]byte)}
	if idle > 0 {
		f.dl = r.(readDeadliner)
	}
	fillOut.Add(1)
	return f
}

// release returns the fill buffer to the pool. Payload views die with it.
func (f *frameReader) release() {
	fillPool.Put(f.buf)
	f.buf = nil
	fillOut.Add(-1)
}

// fill does one Read into p, arming the liveness deadline first. A Read
// error is latched rather than returned: bytes delivered alongside it are
// still parsed, and the error surfaces when more are needed.
func (f *frameReader) fill(p []byte) int {
	if f.dl != nil {
		f.dl.SetReadDeadline(time.Now().Add(f.idle))
	}
	n, err := f.r.Read(p)
	f.err = err
	if telemetry.On() {
		cRxReads.Inc()
	}
	return n
}

// failed maps the latched error the way io.ReadFull does for the header or
// payload being gathered: an end of stream after part of it is unexpected,
// before any of it a clean io.EOF.
func (f *frameReader) failed(partial bool) error {
	if f.err == io.EOF && partial {
		return io.ErrUnexpectedEOF
	}
	return f.err
}

// need makes buf[lo:lo+n] readable, n <= fillSize, compacting the unparsed
// tail to the front before the first Read so each fill has the most room.
func (f *frameReader) need(n int) error {
	if f.hi-f.lo >= n {
		return nil
	}
	if f.lo > 0 {
		f.hi = copy(f.buf[:], f.buf[f.lo:f.hi])
		f.lo = 0
	}
	for f.hi < n {
		if f.err != nil {
			return f.failed(f.hi > 0)
		}
		f.hi += f.fill(f.buf[f.hi:])
	}
	return nil
}

// muxHeaderLen is the multiplexed frame header size: [type:1][stream:4 BE]
// [len:4 BE].
const muxHeaderLen = 9

// muxHeader encodes a multiplexed frame's header; the session writer
// appends it and the payload to its pending buffer as one unit.
func muxHeader(typ byte, sid uint32, n int) (h [muxHeaderLen]byte) {
	h[0] = typ
	binary.BigEndian.PutUint32(h[1:], sid)
	binary.BigEndian.PutUint32(h[5:], uint32(n))
	return h
}

// readMux parses one multiplexed frame (type, stream id, payload),
// rejecting an oversized length prefix before anything is read or
// allocated for it.
func (f *frameReader) readMux() (typ byte, sid uint32, payload []byte, err error) {
	if err = f.need(muxHeaderLen); err != nil {
		return 0, 0, nil, err
	}
	hdr := f.buf[f.lo : f.lo+muxHeaderLen]
	typ = hdr[0]
	sid = binary.BigEndian.Uint32(hdr[1:5])
	n := int(binary.BigEndian.Uint32(hdr[5:]))
	if n > MaxFrame {
		return 0, 0, nil, fmt.Errorf("remote: frame length %d exceeds MaxFrame", n)
	}
	f.lo += muxHeaderLen
	if n <= fillSize {
		if err = f.need(n); err != nil {
			return 0, 0, nil, err
		}
		payload = f.buf[f.lo : f.lo+n]
		f.lo += n
		if cap(f.big) > 1<<20 {
			f.big = nil // one huge frame must not pin its high-water mark
		}
	} else {
		// Too big to buffer: move what is already in hand, then read the
		// rest from the connection straight into place.
		if cap(f.big) < n {
			f.big = make([]byte, n)
		}
		payload = f.big[:n]
		got := copy(payload, f.buf[f.lo:f.hi])
		f.lo, f.hi = 0, 0
		for got < n {
			if f.err != nil {
				return 0, 0, nil, f.failed(got > 0)
			}
			got += f.fill(payload[got:])
		}
	}
	countRx()
	return typ, sid, payload, nil
}

// ---- OPEN payload ----

// protocolVersion is the one wire version this package speaks. It leads
// every OPEN payload — the session handshake and each stream's OPEN alike
// — and a peer that sends any other is refused with an ERR naming both
// numbers.
const protocolVersion = 6

// Open modes.
const (
	openNamed  byte = 0 // a generator registered on the server
	openSource byte = 1 // a vetted Junicon source program + expression
	openResume byte = 2 // a checkpoint snapshot to restore
	openMux    byte = 3 // the session handshake; names no generator
)

// openReq is the decoded OPEN payload.
type openReq struct {
	mode   byte
	credit uint64 // initial credit grant == client pipe buffer
	stream uint64 // client telemetry stream ID; 0 = unobserved client
	batch  uint64 // longest VALUES run the client asks for; 0 and 1 both mean runs of one
	// Durability fields. interval asks the server to emit a SNAPSHOT after
	// every interval delivered values (0 = never). skip asks the server to
	// discard that many leading values before the first delivery — crash
	// recovery replays deterministically up to the resume point.
	interval uint64
	skip     uint64
	name     string // openNamed
	program  string // openSource: declarations (may be empty)
	expr     string // openSource: the generator expression
	blob     []byte // openResume: the checkpoint snapshot
	args     []byte // wire-encoded argument list (decoded lazily server-side)
}

func (o *openReq) marshal() []byte {
	b := []byte{protocolVersion, o.mode}
	for _, field := range []uint64{o.credit, o.stream, o.batch, o.interval, o.skip} {
		b = binary.AppendUvarint(b, field)
	}
	switch o.mode {
	case openNamed:
		b = wire.AppendString(b, o.name)
	case openSource:
		b = wire.AppendString(b, o.program)
		b = wire.AppendString(b, o.expr)
	case openResume:
		b = append(binary.AppendUvarint(b, uint64(len(o.blob))), o.blob...)
	case openMux:
		// The handshake names no generator: credit carries the client's
		// streams-per-conn hint and stream its connection id.
	}
	return append(b, o.args...)
}

// payloadLimits lets a field of a frame payload be as long as the frame,
// which MaxFrame has already bounded.
var payloadLimits = wire.Limits{MaxBytes: MaxFrame}

// parseOpen decodes an OPEN payload. The strings are copies; blob and args
// alias payload.
func parseOpen(payload []byte) (*openReq, error) {
	r := wire.NewReader(payload, payloadLimits)
	ver, err := r.Byte()
	if err != nil {
		return nil, fmt.Errorf("remote: OPEN payload: %w", err)
	}
	if ver != protocolVersion {
		return nil, fmt.Errorf("remote: protocol version %d, want %d", ver, protocolVersion)
	}
	o := &openReq{}
	o.mode, err = r.Byte()
	for _, field := range []*uint64{&o.credit, &o.stream, &o.batch, &o.interval, &o.skip} {
		if err == nil {
			*field, err = r.Uvarint()
		}
	}
	if err == nil {
		switch o.mode {
		case openNamed:
			o.name, err = r.Str()
		case openSource:
			if o.program, err = r.Str(); err == nil {
				o.expr, err = r.Str()
			}
		case openResume:
			o.blob, err = r.Bytes()
		case openMux:
		default:
			err = fmt.Errorf("unknown mode %d", o.mode)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("remote: OPEN payload: %w", err)
	}
	o.args = r.Rest()
	return o, nil
}

// ---- ERR payload ----

// ErrClass says why the server failed or refused a stream. It leads every
// ERR payload, so what the client does next — give up, or drop a snapshot
// and replay — never depends on the wording of the message after it.
type ErrClass byte

const (
	// ClassRefused: the server would not open the stream or the session
	// (unknown generator, vet errors, source disabled, connection limit).
	ClassRefused ErrClass = 1
	// ClassResumeRejected: the server would not restore the snapshot a
	// resume-mode OPEN carried; a recovering pipe drops it and replays.
	ClassResumeRejected ErrClass = 2
	// ClassProducer: the serving generator raised a runtime error,
	// panicked, or produced a value the codec cannot carry.
	ClassProducer ErrClass = 3
	// ClassProtocol: the peer did not speak this protocol (wrong version,
	// malformed OPEN, a handshake that is no handshake).
	ClassProtocol ErrClass = 4
)

func errPayload(class ErrClass, msg string) []byte { return append([]byte{byte(class)}, msg...) }

// parseErr decodes an ERR payload. A first byte that is no class is the
// first letter of a message: a peer older than the class byte refusing the
// handshake, whose words — they name both versions — are reported whole.
func parseErr(payload []byte) *RemoteError {
	if len(payload) == 0 || payload[0] == 0 || payload[0] > byte(ClassProtocol) {
		return &RemoteError{Class: ClassProtocol, Msg: string(payload)}
	}
	return &RemoteError{Class: ErrClass(payload[0]), Msg: string(payload[1:])}
}

// ---- SNAPSHOT payload ----

// snapshotPayload encodes a SNAPSHOT frame: the delivered-value count the
// snapshot corresponds to, an ok byte, then either the checkpoint blob
// (ok=1) or a human-readable refusal reason (ok=0). A refusal is a normal
// answer, not an error — the stream keeps flowing and the client falls
// back to replay recovery.
func snapshotPayload(produced uint64, ok bool, rest []byte) []byte {
	b := binary.AppendUvarint(nil, produced)
	if ok {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return append(b, rest...)
}

func parseSnapshot(payload []byte) (produced uint64, ok bool, rest []byte, err error) {
	r := wire.NewReader(payload, payloadLimits)
	if produced, err = r.Uvarint(); err == nil {
		var okb byte
		okb, err = r.Byte()
		ok = okb != 0
	}
	if err != nil {
		return 0, false, nil, errors.New("remote: bad SNAPSHOT payload")
	}
	return produced, ok, r.Rest(), nil
}

// creditPayload encodes a CREDIT grant. It inlines, so the array stays on
// the caller's stack: enqueue copies the payload.
func creditPayload(n uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	return b[:binary.PutUvarint(b[:], n)]
}

func parseCredit(payload []byte) (uint64, error) {
	u, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) {
		return 0, errors.New("remote: bad CREDIT payload")
	}
	return u, nil
}
