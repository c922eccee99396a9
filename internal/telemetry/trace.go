package telemetry

import (
	"sync/atomic"
	"time"
)

// Kind classifies a trace event. Every stream event comes from the one
// record each observed stream keeps (internal/inspect); KindSpan is a
// host-level span.
type Kind uint8

// Trace event kinds.
const (
	KindUnknown     Kind = iota
	KindStreamOpen       // record opened
	KindStreamEnd        // record closed; Dur = lifetime, Arg = values produced
	KindPut              // a production that waited to put; Dur = the wait, Arg = values
	KindValue            // a production that did not wait; Arg = values
	KindTake             // a consumption that waited; Dur = the wait, Arg = values
	KindCreditStall      // a served stream waited for credit; Dur = the stall
	KindSpan             // host-level span (CLI eval, coordinator run)
)

var kindNames = [...]string{
	KindUnknown:     "unknown",
	KindStreamOpen:  "stream-open",
	KindStreamEnd:   "stream-end",
	KindPut:         "put",
	KindValue:       "value",
	KindTake:        "take",
	KindCreditStall: "credit-stall",
	KindSpan:        "span",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record. Instant events have Dur == 0; span events
// carry their duration and TS marks the span start. Times are wall-clock
// UnixNano so events from cooperating processes align on one axis.
type Event struct {
	TS     int64  // span start (or instant time), ns since the Unix epoch
	Dur    int64  // span duration in ns; 0 for instants
	Stream uint64 // owning stream; 0 = none
	Kind   Kind
	Name   string // static label: generator name, pipe label, metric site
	Arg    int64  // kind-specific payload (depth, credits, value count)
}

// Ring is a fixed-capacity lock-free buffer of trace events. Writers
// claim a slot with one atomic add and publish with one atomic pointer
// store; when the ring wraps, the oldest events are overwritten — recent
// history always survives, which is the right bias for a flight recorder.
type Ring struct {
	slots []atomic.Pointer[Event]
	pos   atomic.Uint64
}

// DefaultRingSize is the trace buffer capacity used when none is given.
const DefaultRingSize = 1 << 16

// NewRing returns a ring holding up to capacity events (minimum 16).
func NewRing(capacity int) *Ring {
	if capacity < 16 {
		capacity = 16
	}
	return &Ring{slots: make([]atomic.Pointer[Event], capacity)}
}

// Add publishes one event.
func (r *Ring) Add(ev Event) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(&ev)
}

// Drain removes and returns the buffered events, oldest first by
// timestamp. Events published concurrently with Drain either make this
// batch or the next; none are duplicated.
func (r *Ring) Drain() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Swap(nil); p != nil {
			out = append(out, *p)
		}
	}
	sortEvents(out)
	return out
}

func sortEvents(evs []Event) {
	// Insertion sort: drained events are already near-ordered because
	// slots are claimed in time order; only concurrent writers invert.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].TS < evs[j-1].TS; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// ---- global tracer ----

// The installed ring is the tracing gate: nil means tracing is off and
// Emit is one atomic load and a branch.
var tracer atomic.Pointer[Ring]

// StartTrace installs a fresh ring of the given capacity (<= 0 selects
// DefaultRingSize) and returns it. Any previously installed ring is
// replaced; its undrained events are discarded.
func StartTrace(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	r := NewRing(capacity)
	tracer.Store(r)
	return r
}

// StopTrace uninstalls the ring and returns its remaining events.
func StopTrace() []Event {
	r := tracer.Swap(nil)
	if r == nil {
		return nil
	}
	return r.Drain()
}

// DrainTrace returns the buffered events, leaving tracing active.
func DrainTrace() []Event {
	r := tracer.Load()
	if r == nil {
		return nil
	}
	return r.Drain()
}

// TraceOn reports whether a trace ring is installed.
func TraceOn() bool { return tracer.Load() != nil }

// Emit records an instant event if tracing is on.
func Emit(stream uint64, kind Kind, name string, arg int64) {
	r := tracer.Load()
	if r == nil {
		return
	}
	r.Add(Event{TS: time.Now().UnixNano(), Stream: stream, Kind: kind, Name: name, Arg: arg})
}

// EmitSpan records a span that started at start and ends now, if tracing
// is on. Call sites capture start with Since/time.Now only when TraceOn
// already held, so the disabled path never reads the clock.
func EmitSpan(stream uint64, kind Kind, name string, arg int64, start time.Time) {
	r := tracer.Load()
	if r == nil {
		return
	}
	now := time.Now()
	r.Add(Event{
		TS:     start.UnixNano(),
		Dur:    now.Sub(start).Nanoseconds(),
		Stream: stream,
		Kind:   kind,
		Name:   name,
		Arg:    arg,
	})
}
