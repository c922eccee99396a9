package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from this package: the
// program under test is never instrumented. Parent is the index of the
// span that caused it (-1 for the root of an operation) and Run numbers
// the operation, so all spans of one operation share it.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Run     int    `json:"run"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, which is how the untraced passes run.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	runs  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newRun allots the identifier the spans of one operation share.
func (r *recorder) newRun() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	return r.runs
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, run int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, StartNs: now, Parent: parent, Run: run})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNs = now
	r.mu.Unlock()
}

// phase is a stretch of a child process's life, as the child timed it.
type phase struct {
	name string
	ms   float64
}

// within records the phases a child process reported as back-to-back
// spans inside the finished span parent, ending where it ends.
func (r *recorder) within(parent, run int, phases ...phase) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.spans[parent].EndNs
	for i := len(phases) - 1; i >= 0; i-- {
		d := int64(phases[i].ms * 1e6)
		r.spans = append(r.spans, span{Name: phases[i].name, StartNs: at - d, EndNs: at, Parent: parent, Run: run})
		at -= d
	}
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes totals each span name's duration and self time: a span's
// duration minus the part of it its child spans cover (children that
// overlap, as concurrent streams do, are counted once).
func (r *recorder) selfTimes() []layerTime {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range r.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].StartNs < r.spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(r.spans[k].StartNs, edge), min(r.spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt.Count++
		lt.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		lt.SelfMs += float64(s.EndNs-s.StartNs-covered) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// chromeEvents renders the spans for chrome://tracing or Perfetto, one
// thread per operation (tid = run).
func (r *recorder) chromeEvents() []chromeEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		evs[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Tid:  s.Run,
			Args: map[string]int{"span": i, "parent": s.Parent, "run": s.Run},
		}
	}
	return evs
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
