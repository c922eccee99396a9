package queue

import (
	"time"

	"junicon/internal/telemetry"
)

// Telemetry instrumentation for the transport layer. A wrapped queue
// measures what the paper's bounded-buffer story makes interesting and
// otherwise invisible: how long producers block in Put (the §3B
// throttle actually biting), how long consumers block in Take (a
// starved pipeline stage), and the depth/occupancy the buffer runs at.
// The wrapper is installed by pipes only when telemetry is active, so
// uninstrumented queues pay nothing at all.

var (
	cPuts          = telemetry.NewCounter("queue.puts")
	cTakes         = telemetry.NewCounter("queue.takes")
	cPutBlockedNs  = telemetry.NewCounter("queue.put_blocked_ns")
	cTakeBlockedNs = telemetry.NewCounter("queue.take_blocked_ns")
	hDepth         = telemetry.NewHistogram("queue.depth")
	hOccupancy     = telemetry.NewHistogram("queue.occupancy_pct")
	hPutBatch      = telemetry.NewHistogram("queue.put_batch_size")
	hTakeBatch     = telemetry.NewHistogram("queue.take_batch_size")
)

// Instrument wraps q so Put/Take record blocked time, depth and
// occupancy metrics, and emit put/take span events under the given
// stream ID when tracing is on. name labels the events (typically the
// owning construct: "pipe", "remote").
func Instrument[T any](q Queue[T], stream uint64, name string) Queue[T] {
	return &instrumented[T]{q: q, stream: stream, name: name}
}

type instrumented[T any] struct {
	q      Queue[T]
	stream uint64
	name   string
}

// observe records a transfer of n elements that began at start: element
// counters move by n, blocked time and depth are sampled once, and tracing
// emits a single span for the whole run. batch marks the batch operations,
// whose run length also lands in the batch-size histogram — the
// amortization actually won.
func (iq *instrumented[T]) observe(put bool, start time.Time, n int, batch bool) {
	on, tracing := telemetry.On(), telemetry.TraceOn()
	if !on && !tracing {
		return
	}
	blocked := time.Since(start).Nanoseconds()
	depth := iq.q.Len()
	if on {
		count, blockedNs, size := cTakes, cTakeBlockedNs, hTakeBatch
		if put {
			count, blockedNs, size = cPuts, cPutBlockedNs, hPutBatch
		}
		count.Add(int64(n))
		blockedNs.Add(blocked)
		if batch {
			size.Observe(int64(n))
		}
		hDepth.Observe(int64(depth))
		if c := iq.q.Cap(); c > 0 {
			hOccupancy.Observe(int64(depth * 100 / c))
		}
	}
	if tracing {
		kind := telemetry.KindTake
		if put {
			kind = telemetry.KindPut
		}
		telemetry.EmitSpan(iq.stream, kind, iq.name, int64(depth), start)
	}
}

func (iq *instrumented[T]) Put(v T) error {
	start := time.Now()
	err := iq.q.Put(v)
	if err == nil {
		iq.observe(true, start, 1, false)
	}
	return err
}

func (iq *instrumented[T]) Take() (T, error) {
	start := time.Now()
	v, err := iq.q.Take()
	if err == nil {
		iq.observe(false, start, 1, false)
	}
	return v, err
}

func (iq *instrumented[T]) TryPut(v T) (bool, error) {
	ok, err := iq.q.TryPut(v)
	if ok {
		iq.observe(true, time.Now(), 1, false)
	}
	return ok, err
}

func (iq *instrumented[T]) TryTake() (T, bool, error) {
	v, ok, err := iq.q.TryTake()
	if ok {
		iq.observe(false, time.Now(), 1, false)
	}
	return v, ok, err
}

func (iq *instrumented[T]) PutBatch(vs []T) (int, error) {
	start := time.Now()
	n, err := iq.q.PutBatch(vs)
	if n > 0 {
		iq.observe(true, start, n, true)
	}
	return n, err
}

func (iq *instrumented[T]) TakeBatch(dst []T) (int, error) {
	start := time.Now()
	n, err := iq.q.TakeBatch(dst)
	if n > 0 {
		iq.observe(false, start, n, true)
	}
	return n, err
}

func (iq *instrumented[T]) Len() int { return iq.q.Len() }
func (iq *instrumented[T]) Cap() int { return iq.q.Cap() }
func (iq *instrumented[T]) Close()   { iq.q.Close() }
