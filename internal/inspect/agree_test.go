package inspect_test

// The agreement table: every observed stream keeps one record, and what
// the record feeds each sink is one measurement told three ways. Every
// transport runs under every combination of the three switches. With all
// of them off nothing may be recorded; with any on, each view present must
// report the values that crossed — the registry's produced and consumed,
// the kind's value counter, the sum of the stream's put and value events.

import (
	"strings"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/pipe"
	"junicon/internal/pool"
	"junicon/internal/remote"
	"junicon/internal/telemetry"
	"junicon/internal/value"
)

const agreeN = 300

// kindCounters names each value-carrying kind's value and stream counters.
var kindCounters = map[string][2]string{
	inspect.KindPipe:         {"pipe.values", "pipe.producers_started"},
	inspect.KindRemoteClient: {"remote.client.values", "remote.client.streams_opened"},
	inspect.KindRemoteServer: {"remote.server.values", "remote.server.streams_total"},
	inspect.KindPool:         {"pool.tasks", ""},
}

// kindOf names the kind of record a trace event's label belongs to.
func kindOf(label string) string {
	for prefix, kind := range map[string]string{
		"pipe": inspect.KindPipe, "remote:": inspect.KindRemoteClient, "serve:": inspect.KindRemoteServer,
		"pool": inspect.KindPool, "session:": inspect.KindSession,
	} {
		if strings.HasPrefix(label, prefix) {
			return kind
		}
	}
	return ""
}

type nexter interface{ Next() (value.V, bool) }

// drainAll takes every value of p and fails the test unless there are n.
func drainAll(t *testing.T, p nexter, n int) {
	t.Helper()
	got := 0
	for _, ok := p.Next(); ok; _, ok = p.Next() {
		got++
	}
	if got != n {
		t.Fatalf("drained %d values, want %d", got, n)
	}
}

// agreeRuns drive one transport each; every record is closed on return.
var agreeRuns = []struct {
	name  string
	want  map[string]int64 // kind → values its one record produces
	waits []string         // blocked-time counters its brackets feed
	run   func(t *testing.T)
}{
	{"pipe", map[string]int64{inspect.KindPipe: agreeN},
		[]string{"queue.put_blocked_ns", "queue.take_blocked_ns"},
		func(t *testing.T) {
			p := pipe.New(core.NewFirstClass(core.IntRange(1, agreeN)), 8)
			drainAll(t, p, agreeN)
			p.Stop()
		}},
	{"pooled-pipe", map[string]int64{inspect.KindPipe: agreeN, inspect.KindPool: 1},
		[]string{"queue.put_blocked_ns", "queue.take_blocked_ns"},
		func(t *testing.T) {
			pl := pool.New(2)
			p := pipe.FromGen(core.IntRange(1, agreeN), 8).OnPool(pl)
			drainAll(t, p, agreeN)
			p.Stop()
			pl.Shutdown()
		}},
	{"remote", map[string]int64{inspect.KindRemoteClient: agreeN, inspect.KindRemoteServer: agreeN},
		[]string{"queue.take_blocked_ns"},
		func(t *testing.T) {
			srv := remote.NewServer()
			srv.Register("range", func([]value.V) (core.Gen, error) { return core.IntRange(1, agreeN), nil })
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			d := &remote.Dialer{}
			p := d.Open(addr.String(), "range", nil, remote.Config{Buffer: 16, Batch: 4})
			drainAll(t, p, agreeN)
			p.Stop()
			d.Close()
			srv.Close()
		}},
	{"pool", map[string]int64{inspect.KindPool: agreeN}, nil,
		func(t *testing.T) {
			pl := pool.New(2)
			for range agreeN {
				pool.Submit(pl, func() (int, error) { return 0, nil })
			}
			pl.Shutdown()
		}},
}

var agreeSinks = []struct {
	name                     string
	metrics, trace, registry bool
}{
	{"off", false, false, false},
	{"metrics", true, false, false},
	{"trace", false, true, false},
	{"registry", false, false, true},
	{"all", true, true, true},
}

func TestRecordViewsAgree(t *testing.T) {
	defer inspect.Reset()
	for _, r := range agreeRuns {
		for _, s := range agreeSinks {
			t.Run(r.name+"/"+s.name, func(t *testing.T) {
				inspect.Reset()
				telemetry.ResetMetrics()
				telemetry.SetMetrics(s.metrics)
				if s.trace {
					telemetry.StartTrace(1 << 16)
				}
				if s.registry {
					inspect.Enable()
				}
				r.run(t)
				inspect.Disable()
				telemetry.SetMetrics(false)
				evs := telemetry.StopTrace()
				rows, snap := inspect.Snapshot(), telemetry.Snapshot()

				if !s.metrics && !s.trace && !s.registry {
					if len(rows)+len(evs) != 0 {
						t.Fatalf("every sink off, yet %d registry rows and %d events", len(rows), len(evs))
					}
					for name, v := range snap {
						if h, ok := v.(telemetry.HistogramSnapshot); ok && h.Count != 0 ||
							name != "remote.mux.sessions" && v != int64(0) && !ok {
							t.Errorf("every sink off, yet %s = %v", name, v)
						}
					}
					return
				}
				agreeRegistry(t, r.want, s.registry, rows)
				agreeMetrics(t, r.want, r.waits, s.metrics, snap)
				agreeTrace(t, r.want, s.trace, evs)
			})
		}
	}
}

// agreeRegistry: one finished row per record, its produced the values that
// crossed and its consumed either none (a producer-only record) or all.
func agreeRegistry(t *testing.T, want map[string]int64, on bool, rows []inspect.StreamInfo) {
	t.Helper()
	if !on {
		if len(rows) != 0 {
			t.Errorf("registry off, yet %d rows", len(rows))
		}
		return
	}
	seen := map[string]int{}
	for _, row := range rows {
		seen[row.Kind]++
		if row.Live {
			t.Errorf("%s %s still live after its run", row.Kind, row.ID)
		}
		if n, ok := want[row.Kind]; ok && (row.Produced != n || row.Consumed != 0 && row.Consumed != n) {
			t.Errorf("%s row: produced %d, consumed %d; want %d", row.Kind, row.Produced, row.Consumed, n)
		}
	}
	for kind := range want {
		if seen[kind] != 1 {
			t.Errorf("%d %s rows, want 1", seen[kind], kind)
		}
	}
}

// agreeMetrics: each kind's value counter moved by its values and its
// stream counter by one, and the wait brackets billed blocked time.
func agreeMetrics(t *testing.T, want map[string]int64, waits []string, on bool, snap map[string]any) {
	t.Helper()
	for kind, n := range want {
		if !on {
			n = 0
		}
		names := kindCounters[kind]
		if got := snap[names[0]]; got != n {
			t.Errorf("%s = %v, want %d", names[0], got, n)
		}
		if names[1] != "" && snap[names[1]] != min(n, 1) {
			t.Errorf("%s = %v, want %d", names[1], snap[names[1]], min(n, 1))
		}
	}
	for _, name := range waits {
		if got := snap[name].(int64); on != (got > 0) {
			t.Errorf("%s = %d with metrics on = %v", name, got, on)
		}
	}
}

// agreeTrace: every record opened and ended once, and its put and value
// events add up to the values its stream-end reports — the values that
// crossed.
func agreeTrace(t *testing.T, want map[string]int64, on bool, evs []telemetry.Event) {
	t.Helper()
	if !on {
		if len(evs) != 0 {
			t.Errorf("trace off, yet %d events", len(evs))
		}
		return
	}
	type key struct {
		stream uint64
		label  string
	}
	opens, ends, sums, end := map[key]int{}, map[key]int{}, map[key]int64{}, map[key]int64{}
	for _, ev := range evs {
		k := key{ev.Stream, ev.Name}
		switch ev.Kind {
		case telemetry.KindStreamOpen:
			opens[k]++
		case telemetry.KindStreamEnd:
			ends[k]++
			end[k] = ev.Arg
		case telemetry.KindPut, telemetry.KindValue:
			sums[k] += ev.Arg
		}
	}
	perKind := map[string]int{}
	for k, n := range opens {
		kind := kindOf(k.label)
		perKind[kind]++
		if n != 1 || ends[k] != 1 {
			t.Errorf("%s %x: %d stream-open, %d stream-end, want one each", k.label, k.stream, n, ends[k])
		}
		if kind == inspect.KindSession {
			continue // a flush may finish after teardown has closed the record
		}
		if sums[k] != end[k] {
			t.Errorf("%s %x: put/value events carry %d values, stream-end %d", k.label, k.stream, sums[k], end[k])
		}
		if n, ok := want[kind]; ok && end[k] != n {
			t.Errorf("%s %x: stream-end carries %d values, want %d", k.label, k.stream, end[k], n)
		}
	}
	for kind := range want {
		if perKind[kind] != 1 {
			t.Errorf("%d %s records traced, want 1", perKind[kind], kind)
		}
	}
}

// TestWaitBracketsBillBlockedTime: the put bracket of a producer parked on
// a full queue and the take bracket of a consumer parked on an empty one
// bill the time they were parked — the brackets the watchdog reads as
// blocked-put and blocked-take.
func TestWaitBracketsBillBlockedTime(t *testing.T) {
	const hold = 20 * time.Millisecond
	telemetry.SetMetrics(true)
	defer telemetry.SetMetrics(false)
	blocked := func(name string) int64 { return telemetry.Snapshot()[name].(int64) }

	// Put side: the consumer takes one value and holds while the producer
	// fills a buffer of 2 and parks in put.
	before := blocked("queue.put_blocked_ns")
	full := pipe.New(core.NewFirstClass(core.IntRange(1, 8)), 2)
	defer full.Stop()
	full.Next()
	time.Sleep(hold)
	drainAll(t, full, 7)
	if ns := blocked("queue.put_blocked_ns") - before; ns < hold.Nanoseconds()/2 {
		t.Errorf("queue.put_blocked_ns moved %d, want >= %d (producer parked %v)", ns, hold.Nanoseconds()/2, hold)
	}

	// Take side: a producer slow to its first value parks the consumer.
	before = blocked("queue.take_blocked_ns")
	slow := pipe.FromGen(core.NewGen(func(yield func(value.V) bool) {
		time.Sleep(hold)
		yield(value.IntV(1))
	}), 1)
	defer slow.Stop()
	drainAll(t, slow, 1)
	if ns := blocked("queue.take_blocked_ns") - before; ns < hold.Nanoseconds()/2 {
		t.Errorf("queue.take_blocked_ns moved %d, want >= %d (consumer parked %v)", ns, hold.Nanoseconds()/2, hold)
	}
}

// TestConsumeEdgeLookupsPerRun: an inspected pipe drained by an unbound
// goroutine (a main, a test) looks its consumer edge up once per run it
// takes, not once per value — the stack parse per value made an inspected
// hop a hundred times dearer than an uninspected one.
func TestConsumeEdgeLookupsPerRun(t *testing.T) {
	withInspect(t)
	const n = 10_000
	p := pipe.FromGen(core.IntRange(1, n), n)
	defer p.Stop()
	p.StartEager()
	// Let the producer queue everything first, so that every run is full.
	for deadline := time.Now().Add(5 * time.Second); p.Out().Len() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("producer never filled its queue")
		}
	}
	before := inspect.Lookups()
	drainAll(t, p, n)
	if got := inspect.Lookups() - before; got > n/100 {
		t.Fatalf("%d consumer-edge lookups draining %d values, want one per run", got, n)
	}
}
