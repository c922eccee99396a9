// Package inspect keeps the one record of every observed stream. Each pipe
// generation, pool, remote client incarnation, served remote stream and
// multiplexed session opens a Handle, feeds it every event of its life and
// closes it once; the record is the only observation call the transports
// make. It fans each event out to three sinks, each behind its own switch:
//
//   - the live registry (Enable): what is happening right now — which
//     streams exist, what state each is in, how deep its queue runs, and
//     who consumes whom — rendered as a topology snapshot (Snapshot, the
//     /debug/streams JSON) and scanned by a stall watchdog (watchdog.go)
//     for streams blocked past a threshold;
//   - the metrics (telemetry.SetMetrics): each kind's stream and value
//     counters, and the time spent in its wait brackets;
//   - the trace ring (telemetry.StartTrace): stream-open, a put span or a
//     value event per Produced, take and credit-stall spans, stream-end.
//
// The watchdog's blocked state and the ledger's blocked time are one
// bracket, so the measurement and the diagnosis cannot disagree.
//
// The package sits below pipe/remote/pool in the import graph (it depends
// only on the standard library and telemetry), so every transport layer
// can open records without cycles.
//
// # Cost model
//
// Every sink is off by default. Open decides once per stream: with every
// sink off it returns nil, whose methods are all nil-safe no-ops, so a hot
// path pays one nil test per event and no atomic load. With a sink on, an
// event costs a few atomic operations and a clock read, and entering the
// registry one mutex acquisition per stream lifetime.
package inspect

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/telemetry"
)

// enabled gates the registry. Records opened while it is off stay out of
// it for their lifetime, as the other sinks are decided once per Open.
var enabled atomic.Bool

// Enable turns the stream registry on process-wide and reports whether it
// already was.
func Enable() bool { return enabled.Swap(true) }

// Disable stops listing new records; listed ones keep updating.
func Disable() { enabled.Store(false) }

// Stream kinds, one per transport construct that opens records.
const (
	KindPipe         = "pipe"
	KindRemoteClient = "remote-client"
	KindRemoteServer = "remote-server"
	KindPool         = "pool"
	// KindSession is a multiplexed connection (internal/remote's Session,
	// either end): its record's state is the shared writer's (blocked-put =
	// wedged in the socket write), and its produced count is flushes, not
	// values.
	KindSession = "session"
)

// kindMetrics is what a kind's records feed while metrics are on: records
// opened, values produced, and the time spent in each wait bracket. A nil
// counter is one the kind does not keep.
type kindMetrics struct{ streams, values, putNs, takeNs *telemetry.Counter }

var kinds = map[string]kindMetrics{
	KindPipe: {
		streams: telemetry.NewCounter("pipe.producers_started"),
		values:  telemetry.NewCounter("pipe.values"),
		putNs:   telemetry.NewCounter("queue.put_blocked_ns"),
		takeNs:  telemetry.NewCounter("queue.take_blocked_ns"),
	},
	KindRemoteClient: {
		streams: telemetry.NewCounter("remote.client.streams_opened"),
		values:  telemetry.NewCounter("remote.client.values"),
		takeNs:  telemetry.NewCounter("queue.take_blocked_ns"),
	},
	// A served stream waits to put for credit: the client's window — §3B's
	// bounded buffer across the wire — throttling its producer.
	KindRemoteServer: {
		streams: telemetry.NewCounter("remote.server.streams_total"),
		values:  telemetry.NewCounter("remote.server.values"),
		putNs:   telemetry.NewCounter("remote.server.credit_stall_ns"),
	},
	KindPool:    {values: telemetry.NewCounter("pool.tasks")},
	KindSession: {values: telemetry.NewCounter("remote.mux.flushes")},
}

// count adds n to c while metrics are on, if the kind keeps c.
func count(c *telemetry.Counter, n int64) {
	if c != nil && telemetry.On() {
		c.Add(n)
	}
}

// Stream states. The producer side owns BlockedPut/Draining, the consumer
// side BlockedTake; whichever closes a bracket flips it back to Running.
// The field is a single atomic — the two sides of a queue cannot be
// blocked in both directions at once, so the last writer is the truth.
const (
	StateRunning int32 = iota
	StateBlockedPut
	StateBlockedTake
	StateDraining // producer finished; values remain for the consumer
	StateDone
	// StateMigrating: the client is cutting the stream over to another node
	// — source draining, snapshot in flight, target not yet serving.
	StateMigrating
)

func stateName(s int32) string {
	switch s {
	case StateRunning:
		return "running"
	case StateBlockedPut:
		return "blocked-put"
	case StateBlockedTake:
		return "blocked-take"
	case StateDraining:
		return "draining"
	case StateDone:
		return "done"
	case StateMigrating:
		return "migrating"
	}
	return "unknown"
}

// Handle is one observed stream's record. All methods are safe on a nil
// receiver — a stream opened while every sink was off carries nil and pays
// one branch.
type Handle struct {
	id      uint64
	kind    string
	label   string
	created time.Time
	listed  bool // entered the registry at Open
	m       kindMetrics

	// Both sides of a stream update its record per value, so the
	// producer's fields and the consumer's sit on cache lines of their own.
	_            [64]byte
	state        atomic.Int32
	produced     atomic.Int64
	putSince     atomic.Int64 // UnixNano the open put bracket began; 0 = none
	lastActive   atomic.Int64 // UnixNano of the last production (listed records)
	_            [64]byte
	consumed     atomic.Int64
	takeSince    atomic.Int64 // likewise for the take bracket
	lastConsumed atomic.Int64 // UnixNano of the last consumption (listed records)
	_            [64]byte

	credit       atomic.Int64
	conn         atomic.Uint64 // owning connection ID; 0 = dedicated/none
	consumesFrom atomic.Uint64 // stream ID this record's consumer drains next
	noted        atomic.Bool   // consumer edge recorded
	resumed      atomic.Bool   // stream recovered from a checkpoint or replay
	closed       atomic.Bool

	depth atomic.Pointer[func() (int, int)] // queue depth and capacity probe
}

// Open opens the record of one stream, or returns nil while every sink is
// off — what the caller keeps and every method accepts. id is the stream's
// ID when it has one already (the one its OPEN frame carried, or a
// session's connection ID, which the wire needs observed or not); 0
// allocates a fresh one, and Open is the one place that does. kind is one
// of the Kind constants; label is free-form ("serve:range", "pipe"), given
// in parts that are joined only when a record opens. The record
// enters the registry only while Enable is in force; it emits stream-open
// and counts one stream of its kind. Every record is closed once, by Close.
func Open(id uint64, kind string, labelParts ...string) *Handle {
	listed := enabled.Load()
	if !listed && !telemetry.Active() {
		return nil
	}
	label := strings.Join(labelParts, "")
	if id == 0 {
		id = telemetry.NextStream()
	}
	h := &Handle{id: id, kind: kind, label: label, created: time.Now(), listed: listed, m: kinds[kind]}
	h.lastActive.Store(h.created.UnixNano())
	if listed {
		reg.mu.Lock()
		reg.live[h] = struct{}{}
		reg.mu.Unlock()
	}
	count(h.m.streams, 1)
	telemetry.Emit(id, telemetry.KindStreamOpen, label, 0)
	return h
}

// ID returns the record's stream identifier (telemetry stream ID space).
func (h *Handle) ID() uint64 {
	if h == nil {
		return 0
	}
	return h.id
}

// BlockedPut opens the producer's wait bracket: the record reads
// blocked-put until Produced or Running closes it. The mark is set before
// every put that may block, so only staleness — no activity past a
// threshold — makes it mean stuck, which is what the watchdog keys on; the
// bracket's length is the kind's put wait.
func (h *Handle) BlockedPut() {
	if h == nil {
		return
	}
	h.putSince.Store(time.Now().UnixNano())
	h.state.Store(StateBlockedPut)
}

// BlockedTake opens the consumer's wait bracket, which Consumed closes.
func (h *Handle) BlockedTake() {
	if h == nil {
		return
	}
	h.takeSince.Store(time.Now().UnixNano())
	h.state.Store(StateBlockedTake)
}

// Running closes the put bracket on a wait that delivered no value: a
// served stream's wait for credit, traced as a credit-stall.
func (h *Handle) Running() {
	if h != nil {
		h.closePut(0)
	}
}

// Produced records n values emitted by the producer side, closing the put
// bracket if one is open: one put span over the bracket, or else one value
// event, carries the n. A listed record notes the time: a producer that
// stops producing is what the watchdog finds stale.
func (h *Handle) Produced(n int64) {
	if h == nil {
		return
	}
	h.produced.Add(n)
	count(h.m.values, n)
	if now := h.closePut(n); h.listed {
		if now == 0 {
			now = time.Now().UnixNano()
		}
		h.lastActive.Store(now)
	}
}

// closePut ends the put bracket, if one is open, returning the time it read
// to do so (0 when none was open).
func (h *Handle) closePut(n int64) (now int64) {
	since := h.putSince.Swap(0)
	if since == 0 {
		if n > 0 {
			telemetry.Emit(h.id, telemetry.KindValue, h.label, n)
		}
		return 0
	}
	now = time.Now().UnixNano()
	h.state.Store(StateRunning)
	count(h.m.putNs, now-since)
	kind := telemetry.KindPut
	if n == 0 && h.kind == KindRemoteServer {
		kind = telemetry.KindCreditStall
	}
	telemetry.EmitSpan(h.id, kind, h.label, n, time.Unix(0, since))
	return now
}

// Consumed records n values taken by the consumer side, closing the take
// bracket if one is open, with a take span carrying the n. A listed record
// notes the time: a live consumer working through a held run keeps its
// producer, parked on the full queue, from reading as abandoned.
func (h *Handle) Consumed(n int64) {
	if h == nil {
		return
	}
	h.consumed.Add(n)
	var now int64
	if since := h.takeSince.Swap(0); since != 0 {
		now = time.Now().UnixNano()
		h.state.Store(StateRunning)
		count(h.m.takeNs, now-since)
		telemetry.EmitSpan(h.id, telemetry.KindTake, h.label, n, time.Unix(0, since))
	}
	if h.listed {
		if now == 0 {
			now = time.Now().UnixNano()
		}
		h.lastConsumed.Store(now)
	}
}

// idleNs is how long neither side of the record has moved, as of now.
func (h *Handle) idleNs(now time.Time) int64 {
	return now.UnixNano() - max(h.lastActive.Load(), h.lastConsumed.Load())
}

// Count adds n to c while metrics are on: a count of this stream's beyond
// its values (a client's credit grants).
func (h *Handle) Count(c *telemetry.Counter, n int64) {
	if h != nil {
		count(c, n)
	}
}

// Observe records v in hist while metrics are on: a measurement of this
// stream no bracket carries (a pool task's queueing, a session's flush).
func (h *Handle) Observe(hist *telemetry.Histogram, v int64) {
	if h != nil && telemetry.On() {
		hist.Observe(v)
	}
}

// SetCredit records the current flow-control credit balance (remote
// streams: the values the peer has authorized but not yet received).
func (h *Handle) SetCredit(n int64) {
	if h == nil {
		return
	}
	h.credit.Store(n)
}

// SetConn records the multiplexed connection this stream travels on (the
// session's connection ID), letting /debug/streams group the streams that
// share a socket. Streams on dedicated connections leave it zero.
func (h *Handle) SetConn(id uint64) {
	if h == nil {
		return
	}
	h.conn.Store(id)
}

// Draining marks the producer finished with values still in flight.
func (h *Handle) Draining() {
	if h == nil {
		return
	}
	h.state.Store(StateDraining)
}

// Migrating marks the stream mid-cutover to another node (durable
// generators: source drained, snapshot or replay in flight).
func (h *Handle) Migrating() {
	if h == nil {
		return
	}
	h.state.Store(StateMigrating)
}

// NoteResumed marks the stream as having recovered — resumed from a
// checkpoint snapshot or replayed after a crash. Sticky for the record's
// lifetime: /debug/streams shows which streams survived a failure.
func (h *Handle) NoteResumed() {
	if h == nil {
		return
	}
	h.resumed.Store(true)
	h.lastActive.Store(time.Now().UnixNano())
}

// SetDepthProbe installs a function reporting the transport queue's
// current depth and capacity; called by Snapshot, never on the hot path.
func (h *Handle) SetDepthProbe(probe func() (depth, capacity int)) {
	if h == nil || probe == nil {
		return
	}
	h.depth.Store(&probe)
}

// Close ends the record: stream-end, carrying the values produced, and the
// move from the live set to the ring of recently finished streams of its
// kind (so a snapshot taken just after a run still shows them). Idempotent
// and nil-safe.
func (h *Handle) Close() {
	if h == nil || !h.closed.CompareAndSwap(false, true) {
		return
	}
	h.state.Store(StateDone)
	h.depth.Store(nil)
	telemetry.EmitSpan(h.id, telemetry.KindStreamEnd, h.label, h.produced.Load(), h.created)
	if h.listed {
		retire(h)
	}
}

// ---- registry ----

// recentSize bounds the finished streams of each kind a snapshot still
// reports.
const recentSize = 64

// live is keyed by record identity, not stream ID: both ends of an
// in-process remote stream legitimately share an ID (the client's, which
// is what stitches the two sides' traces together).
var reg = struct {
	mu     sync.Mutex
	live   map[*Handle]struct{}
	recent map[string][]*Handle // per kind, oldest first
}{live: make(map[*Handle]struct{}), recent: make(map[string][]*Handle)}

// retire moves a closed record from the live set to its kind's ring.
func retire(h *Handle) {
	reg.mu.Lock()
	delete(reg.live, h)
	r := append(reg.recent[h.kind], h)
	reg.recent[h.kind] = r[max(len(r)-recentSize, 0):]
	reg.mu.Unlock()
}

// Reset drops every listed record, live and recent. Test hygiene.
func Reset() {
	reg.mu.Lock()
	reg.live = make(map[*Handle]struct{})
	reg.recent = make(map[string][]*Handle)
	reg.mu.Unlock()
	diag.mu.Lock()
	diag.m = make(map[uint64]Diagnosis)
	diag.mu.Unlock()
}

// ---- topology edges ----

// Producer goroutines bind themselves to their record; a consumer-side
// NoteConsume then looks up the *current* goroutine's bound producer and
// records "that producer consumes from this stream" — the edge set that
// turns the registry into a topology graph (and lets the watchdog find
// pipe-activation cycles at run time, the dynamic complement of the
// static JV012 check).
var producerByGoroutine sync.Map // goroutine id (uint64) -> *Handle

// lookups counts goroutineID calls: the stack parse the edge bookkeeping
// keeps off the per-value path.
var lookups atomic.Int64

// goroutineID parses the running goroutine's ID from its stack header
// ("goroutine N [...]").
func goroutineID() uint64 {
	lookups.Add(1)
	var buf [64]byte
	s := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		if id, err := strconv.ParseUint(string(s[:i]), 10, 64); err == nil {
			return id
		}
	}
	return 0
}

// Bind makes the calling goroutine the record's producer until release
// runs: consumer edges it records name this stream, and its junicon_stream
// pprof label lets the watchdog — and a human at
// /debug/pprof/goroutine?debug=1 — find the goroutine serving a stuck
// stream. A record outside the registry binds nothing.
func (h *Handle) Bind() (release func()) {
	if h == nil || !h.listed {
		return func() {}
	}
	gid := goroutineID()
	producerByGoroutine.Store(gid, h)
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(ProducerLabel, StreamID(h.id))))
	return func() {
		producerByGoroutine.Delete(gid)
		pprof.SetGoroutineLabels(context.Background())
	}
}

// NoteConsume records that the calling goroutine's bound producer, if it
// has one, consumes from h. The lookup parses the stack header, so
// transports make it at most once per run they take and once before
// queueing behind another consumer, never per value; it stops once an
// edge is recorded, but not before — an unbound consumer (the main
// goroutine) taking the first run must not mask a bound producer taking
// the second.
func (h *Handle) NoteConsume() {
	if h == nil || !h.listed || h.noted.Load() {
		return
	}
	if v, ok := producerByGoroutine.Load(goroutineID()); ok {
		v.(*Handle).consumesFrom.Store(h.id)
		h.noted.Store(true)
	}
}

// ---- snapshot ----

// StreamID renders a stream ID the way logs and traces serialize it.
func StreamID(id uint64) string {
	if id == 0 {
		return ""
	}
	return strconv.FormatUint(id, 16)
}

// StreamInfo is one stream's row in the topology snapshot.
type StreamInfo struct {
	ID           string `json:"id"`
	Kind         string `json:"kind"`
	Label        string `json:"label"`
	State        string `json:"state"`
	Live         bool   `json:"live"`
	Produced     int64  `json:"produced"`
	Consumed     int64  `json:"consumed"`
	Credit       int64  `json:"credit,omitempty"`
	Conn         string `json:"conn,omitempty"`
	Depth        int    `json:"depth"`
	Capacity     int    `json:"capacity,omitempty"`
	ConsumesFrom string `json:"consumes_from,omitempty"`
	IdleNs       int64  `json:"idle_ns"`
	AgeNs        int64  `json:"age_ns"`
	Resumed      bool   `json:"resumed,omitempty"`
	Diagnosis    string `json:"diagnosis,omitempty"`
}

func (h *Handle) info(now time.Time, live bool) StreamInfo {
	in := StreamInfo{
		ID:       StreamID(h.id),
		Kind:     h.kind,
		Label:    h.label,
		State:    stateName(h.state.Load()),
		Live:     live,
		Produced: h.produced.Load(),
		Consumed: h.consumed.Load(),
		Credit:   h.credit.Load(),
		IdleNs:   h.idleNs(now),
		AgeNs:    now.Sub(h.created).Nanoseconds(),
		Resumed:  h.resumed.Load(),
	}
	if from := h.consumesFrom.Load(); from != 0 {
		in.ConsumesFrom = StreamID(from)
	}
	if c := h.conn.Load(); c != 0 {
		in.Conn = StreamID(c)
	}
	if probe := h.depth.Load(); probe != nil {
		in.Depth, in.Capacity = (*probe)()
	}
	if d, ok := lookupDiagnosis(h.id); ok {
		in.Diagnosis = d.Cause
	}
	return in
}

// Snapshot returns every live stream plus the recently finished ones,
// sorted live-first then oldest-first — the /debug/streams payload.
func Snapshot() []StreamInfo {
	now := time.Now()
	reg.mu.Lock()
	handles := make([]*Handle, 0, len(reg.live))
	liveSet := make(map[*Handle]bool, len(reg.live))
	for h := range reg.live {
		handles = append(handles, h)
		liveSet[h] = true
	}
	for _, r := range reg.recent {
		handles = append(handles, r...)
	}
	reg.mu.Unlock()
	out := make([]StreamInfo, 0, len(handles))
	for _, h := range handles {
		out = append(out, h.info(now, liveSet[h]))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Live != out[j].Live {
			return out[i].Live
		}
		if out[i].AgeNs != out[j].AgeNs {
			return out[i].AgeNs > out[j].AgeNs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// liveHandles returns the live set for the watchdog's scan.
func liveHandles() []*Handle {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make([]*Handle, 0, len(reg.live))
	for h := range reg.live {
		out = append(out, h)
	}
	return out
}
