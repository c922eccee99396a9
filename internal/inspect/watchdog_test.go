package inspect_test

// Watchdog classification tests: each of the three stall shapes the
// watchdog names — abandoned consumer, remote credit starvation, and a
// pipe-activation cycle — is seeded with real transports (pipes and an
// in-process remote server), and the diagnosis is asserted by cause.
// The negative tests pin the false-positive boundary: a consumer waiting
// on a slow producer, and a slow-but-moving stream, are never flagged.

import (
	"strings"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/pipe"
	"junicon/internal/remote"
	"junicon/internal/value"
)

const stallThreshold = 50 * time.Millisecond

// newScanner returns a watchdog that only scans when the test asks.
func newScanner(t *testing.T, stacks bool) *inspect.Watchdog {
	t.Helper()
	w := inspect.StartWatchdog(inspect.WatchdogConfig{
		Period:    time.Hour, // manual Scan only
		Threshold: stallThreshold,
		Stacks:    stacks,
	})
	t.Cleanup(w.Stop)
	return w
}

// awaitCause scans until a diagnosis with the wanted cause appears; one
// watchdog period in production is one Scan here, repeated while the
// threshold ages in.
func awaitCause(t *testing.T, w *inspect.Watchdog, cause string) inspect.Diagnosis {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, d := range w.Scan() {
			if d.Cause == cause {
				return d
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no %s diagnosis within deadline; have %+v", cause, inspect.Diagnoses())
	return inspect.Diagnosis{}
}

func TestWatchdogConsumerAbandoned(t *testing.T) {
	withInspect(t)
	w := newScanner(t, true)

	// A fast producer into a buffer of 2; the consumer takes one value and
	// walks away without Stop — the JV011 shape, caught at run time.
	p := pipe.FromGen(core.IntRange(1, 1_000_000), 2)
	defer p.Stop()
	if _, ok := p.Next(); !ok {
		t.Fatal("pipe produced nothing")
	}

	d := awaitCause(t, w, inspect.CauseConsumerAbandoned)
	if d.Kind != inspect.KindPipe {
		t.Fatalf("kind = %q, want pipe", d.Kind)
	}
	if d.State != "blocked-put" {
		t.Fatalf("state = %q, want blocked-put", d.State)
	}
	if d.IdleNs < stallThreshold.Nanoseconds() {
		t.Fatalf("idle %dns below threshold", d.IdleNs)
	}
	// Stacks were requested: the producer goroutine carries the
	// junicon_stream pprof label, so its stack must be in the diagnosis.
	if !strings.Contains(d.Stacks, "junicon_stream") {
		t.Fatalf("diagnosis missing labeled producer stack:\n%s", d.Stacks)
	}
	// The stalled stream's snapshot row links back to the diagnosis.
	found := false
	for _, in := range inspect.Snapshot() {
		if in.ID == d.Stream && in.Diagnosis == inspect.CauseConsumerAbandoned {
			found = true
		}
	}
	if !found {
		t.Fatal("snapshot row does not surface the diagnosis")
	}
}

func TestWatchdogCreditStarvation(t *testing.T) {
	withInspect(t)
	w := newScanner(t, false)

	srv := remote.NewServer()
	srv.Register("range", func(args []value.V) (core.Gen, error) {
		return core.IntRange(1, 1_000_000), nil
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("server: %v", err)
	}

	// A credit window of 2 and a consumer that takes one value and then
	// sits idle: the server's producer exhausts the window and blocks in
	// acquire with a zero balance — starvation, not abandonment, because
	// the client connection is alive (heartbeats keep flowing).
	p := remote.Open(addr.String(), "range", nil, remote.Config{Buffer: 2, Batch: -1})
	if _, ok := p.Next(); !ok {
		t.Fatalf("remote produced nothing: %v", p.Err())
	}

	d := awaitCause(t, w, inspect.CauseCreditStarvation)
	if d.Kind != inspect.KindRemoteServer {
		t.Fatalf("kind = %q, want remote-server", d.Kind)
	}
	if d.Credit != 0 {
		t.Fatalf("credit = %d, want 0", d.Credit)
	}

	p.Stop()
	srv.Close()
}

// funcGen adapts a closure to the generator protocol without the
// coroutine indirection core.NewGen introduces — the producer must call
// the closure on its own goroutine for consume edges to attach.
type funcGen func() (value.V, bool)

func (f funcGen) Next() (value.V, bool) { return f() }
func (f funcGen) Restart()              {}

func TestWatchdogActivationCycle(t *testing.T) {
	withInspect(t)
	w := newScanner(t, false)

	// Two pipes that consume each other — the JV012 shape, built
	// deliberately: each producer's first action is to demand a value from
	// the other pipe, so both block in take and the consumes-from edges
	// close a cycle.
	var pa, pb *pipe.Pipe
	pa = pipe.FromGen(funcGen(func() (value.V, bool) { return pb.Next() }), 1)
	pb = pipe.FromGen(funcGen(func() (value.V, bool) { return pa.Next() }), 1)
	defer pa.Stop()
	defer pb.Stop()

	// Kick the deadlock off from a goroutine we can abandon: Next blocks
	// forever until Stop tears the pipes down.
	go pa.Next()

	d := awaitCause(t, w, inspect.CauseActivationCycle)
	if len(d.Cycle) < 2 {
		t.Fatalf("cycle = %v, want both members", d.Cycle)
	}
}

func TestWatchdogHealthySlowStreamsNotFlagged(t *testing.T) {
	withInspect(t)
	w := newScanner(t, false)

	// A consumer blocked on a producer that hasn't yielded yet: lone
	// blocked-take, ordinary demand.
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	slow := pipe.FromGen(core.NewGen(func(yield func(value.V) bool) {
		<-hang
	}), 1)
	defer slow.Stop()
	go slow.Next()

	// A slow but moving stream: a value every 10ms keeps lastActive fresh
	// relative to the threshold.
	ticking := pipe.FromGen(core.NewGen(func(yield func(value.V) bool) {
		for i := int64(1); ; i++ {
			time.Sleep(10 * time.Millisecond)
			if !yield(value.IntV(i)) {
				return
			}
		}
	}), 1)
	defer ticking.Stop()
	stopTick := make(chan struct{})
	t.Cleanup(func() { close(stopTick) })
	go func() {
		for {
			select {
			case <-stopTick:
				return
			default:
			}
			if _, ok := ticking.Next(); !ok {
				return
			}
		}
	}()

	// Scan well past the threshold: neither stream may ever be diagnosed.
	deadline := time.Now().Add(4 * stallThreshold)
	for time.Now().Before(deadline) {
		if ds := w.Scan(); len(ds) != 0 {
			t.Fatalf("healthy streams diagnosed: %+v", ds)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchdogSlowConsumerHoldingRun: a live consumer working through a
// held run for longer than the threshold, while its producer sits parked
// on the full queue, is not an abandoned consumer — its consumption keeps
// the record fresh even though the producer has not moved.
func TestWatchdogSlowConsumerHoldingRun(t *testing.T) {
	withInspect(t)
	w := newScanner(t, false)

	// A run of 8 taken a value per 15ms keeps the producer parked for
	// 120ms, past the 50ms threshold, between two refills.
	p := pipe.FromGen(core.IntRange(1, 1_000_000), 8)
	stop := make(chan struct{})
	done := make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		<-done
		p.Stop()
	})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			if _, ok := p.Next(); !ok {
				return
			}
		}
	}()

	deadline := time.Now().Add(6 * stallThreshold)
	for time.Now().Before(deadline) {
		if ds := w.Scan(); len(ds) != 0 {
			t.Fatalf("slow but live consumer diagnosed: %+v", ds)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
