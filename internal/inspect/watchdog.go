package inspect

import (
	"bytes"
	"log/slog"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// The stall watchdog: a scanner over the live registry that flags streams
// blocked past a threshold and classifies the cause. It is the runtime
// complement of the static analyzer's JV011 (consumer abandons a
// producer) and JV012 (mutual pipe activation): those catch the shapes
// visible in source, this catches the ones that only emerge from live
// scheduling — a consumer that returned without Stop, a remote peer
// sitting on its credit window, two pipes that activated each other.
//
// Classification rules, applied to streams whose last activity is older
// than the threshold:
//
//   - a cycle in the consumes-from edges among blocked stale streams is
//     an activation cycle: every member is diagnosed, whatever its
//     blocking direction;
//   - a producer stuck in blocked-put on a remote-server stream with a
//     zero credit balance is credit starvation — the client consumed its
//     window and stopped granting;
//   - any other producer stuck in blocked-put that long has an abandoned
//     consumer: a consuming goroutine would have freed queue space (and
//     touched the record) well within the threshold;
//   - a lone blocked-take is never flagged — a consumer waiting on a slow
//     producer is ordinary demand, not a stall.

// Stall causes.
const (
	CauseConsumerAbandoned = "consumer-abandoned"
	CauseCreditStarvation  = "credit-starvation"
	CauseActivationCycle   = "activation-cycle"
	// CauseConnBackpressure: a multiplexed session's shared writer is
	// wedged in the socket write (the peer stopped reading), so every
	// stream on that connection stalls together. Diagnosed on the session
	// record and on each stuck stream riding it.
	CauseConnBackpressure = "conn-backpressure"
)

// Diagnosis is one structured stall report.
type Diagnosis struct {
	Stream    string        `json:"stream"`
	Kind      string        `json:"kind"`
	Label     string        `json:"label"`
	Cause     string        `json:"cause"`
	State     string        `json:"state"`
	IdleNs    int64         `json:"idle_ns"`
	Produced  int64         `json:"produced"`
	Consumed  int64         `json:"consumed"`
	Credit    int64         `json:"credit"`
	Cycle     []string      `json:"cycle,omitempty"`  // stream IDs, for activation cycles
	Stacks    string        `json:"stacks,omitempty"` // goroutine stacks labeled with this stream
	At        time.Time     `json:"at"`
	Threshold time.Duration `json:"threshold"`
}

// Latest diagnosis per stream, surfaced in Snapshot rows and Diagnoses.
var diag = struct {
	mu sync.Mutex
	m  map[uint64]Diagnosis
}{m: make(map[uint64]Diagnosis)}

func recordDiagnosis(id uint64, d Diagnosis) {
	diag.mu.Lock()
	diag.m[id] = d
	diag.mu.Unlock()
}

func lookupDiagnosis(id uint64) (Diagnosis, bool) {
	diag.mu.Lock()
	defer diag.mu.Unlock()
	d, ok := diag.m[id]
	return d, ok
}

func clearDiagnosis(id uint64) {
	diag.mu.Lock()
	delete(diag.m, id)
	diag.mu.Unlock()
}

// Diagnoses returns the latest diagnosis per stream, sorted by stream ID.
func Diagnoses() []Diagnosis {
	diag.mu.Lock()
	out := make([]Diagnosis, 0, len(diag.m))
	for _, d := range diag.m {
		out = append(out, d)
	}
	diag.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// WatchdogConfig tunes a Watchdog. The zero value is usable.
type WatchdogConfig struct {
	// Period is the scan interval; <= 0 selects 2s.
	Period time.Duration
	// Threshold is how long a stream may sit blocked without activity
	// before it is diagnosed; <= 0 selects 10s.
	Threshold time.Duration
	// Log, when set, receives one structured line per new diagnosis.
	Log *slog.Logger
	// Stacks includes the stuck streams' goroutine stacks (matched via
	// the junicon_stream pprof label) in diagnoses.
	Stacks bool
}

func (c WatchdogConfig) period() time.Duration {
	if c.Period <= 0 {
		return 2 * time.Second
	}
	return c.Period
}

func (c WatchdogConfig) threshold() time.Duration {
	if c.Threshold <= 0 {
		return 10 * time.Second
	}
	return c.Threshold
}

// Watchdog periodically scans the registry for stalled streams.
type Watchdog struct {
	cfg  WatchdogConfig
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartWatchdog launches a watchdog goroutine scanning every Period.
func StartWatchdog(cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	go w.run()
	return w
}

// Stop terminates the watchdog and waits for its goroutine.
func (w *Watchdog) Stop() {
	w.once.Do(func() { close(w.stop) })
	<-w.done
}

func (w *Watchdog) run() {
	defer close(w.done)
	t := time.NewTicker(w.cfg.period())
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.Scan()
		}
	}
}

// Scan performs one pass over the live registry, recording (and
// returning) the new diagnoses. Exported so tests and admin surfaces can
// trigger a deterministic scan.
func (w *Watchdog) Scan() []Diagnosis {
	now := time.Now()
	threshold := w.cfg.threshold()
	handles := liveHandles()

	// Stale-blocked candidates: inactive past the threshold, in a blocked
	// state. Everything else is healthy — running producers, draining
	// queues, and any stream that moved a value recently.
	type cand struct {
		h     *Handle
		state int32
	}
	stale := make(map[uint64]cand)
	for _, h := range handles {
		st := h.state.Load()
		if st != StateBlockedPut && st != StateBlockedTake {
			continue
		}
		if h.idleNs(now) < threshold.Nanoseconds() {
			clearDiagnosis(h.id) // it moved; any stale diagnosis is over
			continue
		}
		stale[h.id] = cand{h: h, state: st}
	}
	if len(stale) == 0 {
		return nil
	}

	// Cycle detection over consumes-from edges restricted to the stale
	// set: walk from each node; revisiting a node on the current path is
	// a cycle, and every on-path node from the revisit point is a member.
	inCycle := make(map[uint64][]uint64) // member -> the cycle's IDs
	for start := range stale {
		if _, done := inCycle[start]; done {
			continue
		}
		var path []uint64
		seen := make(map[uint64]int)
		cur := start
		for {
			if at, ok := seen[cur]; ok {
				cycle := append([]uint64(nil), path[at:]...)
				for _, id := range cycle {
					inCycle[id] = cycle
				}
				break
			}
			c, ok := stale[cur]
			if !ok {
				break // edge leaves the stale set: not a stuck cycle
			}
			seen[cur] = len(path)
			path = append(path, cur)
			next := c.h.consumesFrom.Load()
			if next == 0 {
				break
			}
			cur = next
		}
	}

	// A multiplexed session record stuck in blocked-put is a shared writer
	// wedged in its socket write: the whole connection is backpressured,
	// and every stale stream riding it shares that cause (including ones
	// in blocked-take — their values are stuck behind the wedged writer,
	// not behind a slow producer).
	stuckConns := make(map[uint64]bool)
	for _, c := range stale {
		if c.h.kind == KindSession && c.state == StateBlockedPut {
			if conn := c.h.conn.Load(); conn != 0 {
				stuckConns[conn] = true
			}
		}
	}

	var out []Diagnosis
	for id, c := range stale {
		cause := ""
		var cycleIDs []string
		switch {
		case inCycle[id] != nil:
			cause = CauseActivationCycle
			for _, m := range inCycle[id] {
				cycleIDs = append(cycleIDs, StreamID(m))
			}
			sort.Strings(cycleIDs)
		case c.h.kind == KindSession && c.state == StateBlockedPut:
			cause = CauseConnBackpressure
		case c.h.conn.Load() != 0 && stuckConns[c.h.conn.Load()]:
			cause = CauseConnBackpressure
		case c.state == StateBlockedPut && c.h.kind == KindRemoteServer && c.h.credit.Load() == 0:
			cause = CauseCreditStarvation
		case c.state == StateBlockedPut:
			cause = CauseConsumerAbandoned
		default:
			// A lone blocked-take: a consumer waiting on a slow producer.
			// Normal demand; never a stall.
			continue
		}
		d := Diagnosis{
			Stream:    StreamID(id),
			Kind:      c.h.kind,
			Label:     c.h.label,
			Cause:     cause,
			State:     stateName(c.state),
			IdleNs:    c.h.idleNs(now),
			Produced:  c.h.produced.Load(),
			Consumed:  c.h.consumed.Load(),
			Credit:    c.h.credit.Load(),
			Cycle:     cycleIDs,
			At:        now,
			Threshold: threshold,
		}
		if w.cfg.Stacks {
			d.Stacks = labeledStacks(id)
		}
		_, known := lookupDiagnosis(id)
		recordDiagnosis(id, d)
		if !known && w.cfg.Log != nil {
			w.cfg.Log.Warn("stream stalled",
				"stream", d.Stream,
				"kind", d.Kind,
				"label", d.Label,
				"cause", d.Cause,
				"state", d.State,
				"idle", time.Duration(d.IdleNs),
				"produced", d.Produced,
				"consumed", d.Consumed,
				"credit", d.Credit)
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// ProducerLabel is the pprof label key producer goroutines carry: its
// value is the stream's hex ID, which is what lets labeledStacks (and a
// human at /debug/pprof/goroutine?debug=1) find the goroutines serving a
// particular stuck stream.
const ProducerLabel = "junicon_stream"

// labeledStacks extracts the goroutine-profile entries labeled with the
// stream's ID. The debug=1 goroutine profile prints one block per unique
// stack, with a "# labels: {...}" line when the goroutines carry labels.
func labeledStacks(id uint64) string {
	p := pprof.Lookup("goroutine")
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return ""
	}
	needle := []byte(ProducerLabel + `":"` + StreamID(id) + `"`)
	var out bytes.Buffer
	for _, block := range bytes.Split(buf.Bytes(), []byte("\n\n")) {
		if bytes.Contains(block, needle) {
			out.Write(bytes.TrimSpace(block))
			out.WriteString("\n\n")
		}
	}
	return out.String()
}
