// Package inspect is the live-introspection layer over the concurrent
// generator runtime: where telemetry (internal/telemetry) counts what has
// happened, inspect answers what is happening *right now* — which streams
// exist, what state each is in, how deep its queue runs, and who consumes
// whom. Every live pipe, remote stream and pool registers a Handle here
// while inspection is enabled; the registry renders as a topology snapshot
// (Snapshot, the /debug/streams JSON), and a stall watchdog (watchdog.go)
// scans it for streams blocked past a threshold, classifying the cause.
//
// The package sits below pipe/remote/pool in the import graph (it depends
// only on the standard library and telemetry's stream-ID allocator), so
// every transport layer can register without cycles.
//
// # Cost model
//
// Inspection is off by default. Registration is decided once per producer
// start behind On() — a single atomic load — and an uninspected stream
// carries a nil *Handle, whose methods are all nil-safe no-ops; the hot
// paths guard with a plain nil check. Enabling inspection costs one
// registry mutex acquisition per stream lifetime plus a handful of atomic
// stores per transported value.
package inspect

import (
	"bytes"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/telemetry"
)

// enabled gates registration. Handles are only created while it is set;
// streams started before Enable stay invisible (exactly as telemetry
// decides observation once per producer start).
var enabled atomic.Bool

// Enable turns the stream registry on process-wide.
func Enable() { enabled.Store(true) }

// Disable stops registering new streams; existing handles keep updating.
func Disable() { enabled.Store(false) }

// On reports whether the registry is accepting registrations. Transport
// code checks it once per stream start, like telemetry.Active.
func On() bool { return enabled.Load() }

// Stream kinds, one per transport construct that registers.
const (
	KindPipe         = "pipe"
	KindRemoteClient = "remote-client"
	KindRemoteServer = "remote-server"
	KindPool         = "pool"
	// KindSession is a multiplexed connection (internal/remote's Session,
	// either end): its handle's state is the shared writer's (blocked-put =
	// wedged in the socket write), and its produced count is flushes, not
	// values.
	KindSession = "session"
)

// Stream states. The producer side owns BlockedPut/Running/Draining; the
// consumer side owns BlockedTake and flips back to Running after a take.
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

// Handle is one registered stream's live state. All methods are safe on a
// nil receiver — uninspected streams carry nil and pay one branch.
type Handle struct {
	id      uint64
	kind    string
	label   string
	created time.Time

	state        atomic.Int32
	produced     atomic.Int64
	consumed     atomic.Int64
	credit       atomic.Int64
	conn         atomic.Uint64 // owning connection ID; 0 = dedicated/none
	lastActive   atomic.Int64  // UnixNano of the last produce/consume
	consumesFrom atomic.Uint64 // stream ID this handle's consumer drains next
	noted        atomic.Bool   // consumer edge recorded (once per generation)
	resumed      atomic.Bool   // stream recovered from a checkpoint or replay
	closed       atomic.Bool

	depth atomic.Pointer[func() (int, int)] // queue depth and capacity probe
}

// ID returns the handle's stream identifier (telemetry stream ID space).
func (h *Handle) ID() uint64 {
	if h == nil {
		return 0
	}
	return h.id
}

func (h *Handle) touch() { h.lastActive.Store(time.Now().UnixNano()) }

// Produced records n values emitted by the producer side.
func (h *Handle) Produced(n int64) {
	if h == nil {
		return
	}
	h.produced.Add(n)
	h.touch()
}

// Consumed records n values taken by the consumer side.
func (h *Handle) Consumed(n int64) {
	if h == nil {
		return
	}
	h.consumed.Add(n)
	h.touch()
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

// BlockedPut marks the producer as possibly blocked publishing a value.
// Set unconditionally before a potentially-blocking put and cleared by
// Running after: only staleness (lastActive far in the past) makes the
// state meaningful, which is exactly what the watchdog keys on.
func (h *Handle) BlockedPut() {
	if h == nil {
		return
	}
	h.state.Store(StateBlockedPut)
}

// BlockedTake marks the consumer as possibly blocked awaiting a value.
func (h *Handle) BlockedTake() {
	if h == nil {
		return
	}
	h.state.Store(StateBlockedTake)
}

// Running clears a blocked mark.
func (h *Handle) Running() {
	if h == nil {
		return
	}
	h.state.Store(StateRunning)
}

// Draining marks the producer finished with values still in flight.
func (h *Handle) Draining() {
	if h == nil {
		return
	}
	h.state.Store(StateDraining)
}

// Migrating marks the stream mid-cutover to another node (durable
// generators: source drained, snapshot or replay in flight). Cleared by
// Running when the target starts serving.
func (h *Handle) Migrating() {
	if h == nil {
		return
	}
	h.state.Store(StateMigrating)
}

// NoteResumed marks the stream as having recovered — resumed from a
// checkpoint snapshot or replayed after a crash. Sticky for the handle's
// lifetime: /debug/streams shows which streams survived a failure.
func (h *Handle) NoteResumed() {
	if h == nil {
		return
	}
	h.resumed.Store(true)
	h.touch()
}

// SetDepthProbe installs a function reporting the transport queue's
// current depth and capacity; called by Snapshot, never on the hot path.
func (h *Handle) SetDepthProbe(probe func() (depth, capacity int)) {
	if h == nil || probe == nil {
		return
	}
	h.depth.Store(&probe)
}

// Close marks the stream done and retires the handle from the live set
// into the recent ring (so a snapshot taken just after a run still shows
// the streams that ran). Idempotent and nil-safe.
func (h *Handle) Close() {
	if h == nil || !h.closed.CompareAndSwap(false, true) {
		return
	}
	h.state.Store(StateDone)
	h.depth.Store(nil)
	retire(h)
}

// Unregister is Close under the name the pairing convention (and the
// junilint inspectleak rule) uses: every Register needs a matching
// Unregister or Close on every path.
func Unregister(h *Handle) { h.Close() }

// ---- registry ----

// recentSize bounds the ring of retired handles a snapshot still reports.
const recentSize = 64

// live is keyed by handle identity, not stream ID: both ends of an
// in-process remote stream legitimately register under the same ID (the
// client's, which is what stitches the two sides' traces together).
var reg = struct {
	mu     sync.Mutex
	live   map[*Handle]struct{}
	recent [recentSize]*Handle
	next   int // ring write cursor
}{live: make(map[*Handle]struct{})}

// Register creates and registers a handle for a stream. id is the stream's
// telemetry ID (0 allocates a fresh one); kind is one of the Kind
// constants; label is free-form ("serve:range", "pipe(buffer=8)"). Returns
// nil when inspection is disabled — callers keep the nil and every method
// no-ops.
func Register(id uint64, kind, label string) *Handle {
	if !enabled.Load() {
		return nil
	}
	if id == 0 {
		id = telemetry.NextStream()
	}
	h := &Handle{id: id, kind: kind, label: label, created: time.Now()}
	h.touch()
	reg.mu.Lock()
	reg.live[h] = struct{}{}
	reg.mu.Unlock()
	return h
}

// retire moves a closed handle from the live set to the recent ring.
func retire(h *Handle) {
	reg.mu.Lock()
	delete(reg.live, h)
	reg.recent[reg.next%recentSize] = h
	reg.next++
	reg.mu.Unlock()
}

// Reset drops every registered handle, live and recent. Test hygiene.
func Reset() {
	reg.mu.Lock()
	reg.live = make(map[*Handle]struct{})
	for i := range reg.recent {
		reg.recent[i] = nil
	}
	reg.next = 0
	reg.mu.Unlock()
	clearDiagnoses()
}

// ---- topology edges ----

// Producer goroutines bind themselves to their handle; a consumer-side
// NoteConsume then looks up the *current* goroutine's bound producer and
// records "that producer consumes from this stream" — the edge set that
// turns the registry into a topology graph (and lets the watchdog find
// pipe-activation cycles at run time, the dynamic complement of the
// static JV012 check).
var producerByGoroutine sync.Map // goroutine id (uint64) -> *Handle

// goroutineID parses the running goroutine's ID from its stack header
// ("goroutine N [...]"). Only used off the per-value path: once per
// producer start and once per consumer edge.
func goroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		if id, err := strconv.ParseUint(string(s[:i]), 10, 64); err == nil {
			return id
		}
	}
	return 0
}

// BindProducer associates the calling goroutine with h for edge
// recording; the returned release must run when the producer exits.
// Nil-safe: an uninspected stream gets a no-op pair.
func BindProducer(h *Handle) (release func()) {
	if h == nil {
		return func() {}
	}
	gid := goroutineID()
	if gid == 0 {
		return func() {}
	}
	producerByGoroutine.Store(gid, h)
	return func() { producerByGoroutine.Delete(gid) }
}

// NoteConsume records that the calling goroutine's bound producer (if
// any) consumes from h, reporting whether an edge was recorded. Called
// once per consumer generation, not per value.
func NoteConsume(h *Handle) bool {
	if h == nil {
		return false
	}
	if gid := goroutineID(); gid != 0 {
		if v, ok := producerByGoroutine.Load(gid); ok {
			v.(*Handle).consumesFrom.Store(h.id)
			return true
		}
	}
	return false
}

// noteConsumeOnce is the per-Next guard: the guard latches only when an
// edge was actually recorded, so an unbound consumer (the main goroutine)
// taking the first value does not mask a bound producer taking the
// second. Edge-recorded streams pay one atomic load per take; streams
// consumed only by unbound goroutines pay the (cheap) failed lookup.
func noteConsumeOnce(h *Handle) {
	if h != nil && !h.noted.Load() && NoteConsume(h) {
		h.noted.Store(true)
	}
}

// NoteConsumeOnce records the consumer edge for h the first time it is
// called; subsequent calls are one atomic load. Transport Next paths call
// this instead of NoteConsume.
func NoteConsumeOnce(h *Handle) { noteConsumeOnce(h) }

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
		IdleNs:   now.UnixNano() - h.lastActive.Load(),
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

// Snapshot returns every live stream plus the recently retired ones,
// sorted live-first then oldest-first — the /debug/streams payload.
func Snapshot() []StreamInfo {
	now := time.Now()
	reg.mu.Lock()
	handles := make([]*Handle, 0, len(reg.live)+recentSize)
	liveSet := make(map[*Handle]bool, len(reg.live))
	for h := range reg.live {
		handles = append(handles, h)
		liveSet[h] = true
	}
	for _, h := range reg.recent {
		if h != nil {
			handles = append(handles, h)
		}
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
