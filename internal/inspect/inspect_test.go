package inspect_test

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"junicon/internal/inspect"
)

// withInspect enables the registry for one test and restores a clean slate.
func withInspect(t *testing.T) {
	t.Helper()
	inspect.Reset()
	inspect.Enable()
	t.Cleanup(func() {
		inspect.Disable()
		inspect.Reset()
	})
}

func TestRegisterDisabledIsNil(t *testing.T) {
	inspect.Reset()
	inspect.Disable()
	h := inspect.Open(0, inspect.KindPipe, "off")
	if h != nil {
		t.Fatalf("Open with every sink off = %v, want nil", h)
	}
	// Every method must be a nil-safe no-op.
	h.Produced(1)
	h.Consumed(1)
	h.SetCredit(3)
	h.BlockedPut()
	h.BlockedTake()
	h.Running()
	h.Draining()
	h.SetDepthProbe(func() (int, int) { return 0, 0 })
	h.NoteConsume()
	h.Bind()()
	h.Close()
	if h.ID() != 0 {
		t.Fatalf("nil handle ID = %d, want 0", h.ID())
	}
	if got := inspect.Snapshot(); len(got) != 0 {
		t.Fatalf("snapshot after disabled register = %v, want empty", got)
	}
}

func TestRegisterSnapshotClose(t *testing.T) {
	withInspect(t)
	h := inspect.Open(0, inspect.KindPipe, "pipe(cap=4)")
	if h == nil {
		t.Fatal("Open returned nil while the registry is on")
	}
	if h.ID() == 0 {
		t.Fatal("Open(0, ...) did not allocate a stream ID")
	}
	h.Produced(5)
	h.Consumed(3)
	h.SetCredit(7)
	h.SetDepthProbe(func() (int, int) { return 2, 4 })
	h.BlockedPut()

	snap := inspect.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d rows, want 1: %+v", len(snap), snap)
	}
	in := snap[0]
	if !in.Live || in.Kind != inspect.KindPipe || in.Label != "pipe(cap=4)" {
		t.Fatalf("bad row: %+v", in)
	}
	if in.Produced != 5 || in.Consumed != 3 || in.Credit != 7 {
		t.Fatalf("bad counts: %+v", in)
	}
	if in.Depth != 2 || in.Capacity != 4 {
		t.Fatalf("depth probe not applied: %+v", in)
	}
	if in.State != "blocked-put" {
		t.Fatalf("state = %q, want blocked-put", in.State)
	}

	h.Close()
	h.Close() // idempotent
	snap = inspect.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("closed handle dropped from snapshot entirely: %+v", snap)
	}
	if snap[0].Live || snap[0].State != "done" {
		t.Fatalf("closed handle not retired: %+v", snap[0])
	}
}

func TestConsumeEdge(t *testing.T) {
	withInspect(t)
	producer := inspect.Open(0, inspect.KindPipe, "downstream")
	upstream := inspect.Open(0, inspect.KindPipe, "upstream")
	defer producer.Close()
	defer upstream.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		release := producer.Bind()
		defer release()
		// The producer goroutine consumes from upstream: the edge recorded
		// is "producer's stream consumes from upstream's stream".
		upstream.NoteConsume()
		upstream.NoteConsume() // once recorded, the second is a no-op
	}()
	<-done

	var row *inspect.StreamInfo
	for _, in := range inspect.Snapshot() {
		if in.Label == "downstream" {
			r := in
			row = &r
		}
	}
	if row == nil {
		t.Fatal("downstream row missing")
	}
	if row.ConsumesFrom != inspect.StreamID(upstream.ID()) {
		t.Fatalf("consumes_from = %q, want %q", row.ConsumesFrom, inspect.StreamID(upstream.ID()))
	}
}

func TestRecentRingBounded(t *testing.T) {
	withInspect(t)
	for i := 0; i < 100; i++ {
		inspect.Open(0, inspect.KindPipe, "burst").Close()
	}
	snap := inspect.Snapshot()
	if len(snap) > 64 {
		t.Fatalf("recent ring leaked: %d retired rows", len(snap))
	}
	for _, in := range snap {
		if in.Live {
			t.Fatalf("unexpected live row: %+v", in)
		}
	}
}

func TestHandlerJSON(t *testing.T) {
	withInspect(t)
	h := inspect.Open(0, inspect.KindPool, "pool(workers=2)")
	defer h.Close()
	h.Produced(9)

	rec := httptest.NewRecorder()
	inspect.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/streams", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var payload inspect.StreamsPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("payload not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(payload.Streams) != 1 || payload.Streams[0].Produced != 9 {
		t.Fatalf("bad payload: %+v", payload)
	}
	if payload.At.IsZero() {
		t.Fatal("payload missing timestamp")
	}
}

func TestWatchdogStartStop(t *testing.T) {
	withInspect(t)
	w := inspect.StartWatchdog(inspect.WatchdogConfig{Period: time.Millisecond, Threshold: time.Hour})
	time.Sleep(5 * time.Millisecond)
	w.Stop()
	w.Stop() // idempotent
}
