package inspect

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"
)

// HTTP exposure: the /debug/streams endpoint junicond mounts next to the
// telemetry handler. One JSON object: the topology snapshot plus the
// watchdog's latest diagnoses, safe to hit while streams are live.

// StreamsPayload is the /debug/streams response body.
type StreamsPayload struct {
	At        time.Time    `json:"at"`
	Streams   []StreamInfo `json:"streams"`
	Conns     []ConnGroup  `json:"conns,omitempty"`
	Diagnoses []Diagnosis  `json:"diagnoses,omitempty"`
}

// ConnGroup aggregates the streams sharing one multiplexed connection —
// the view that makes a stalled shared writer diagnosable: one glance
// shows the wedged session and how many streams ride on it.
type ConnGroup struct {
	Conn      string `json:"conn"`
	Streams   int    `json:"streams"`  // logical streams on the connection
	Sessions  int    `json:"sessions"` // session records (normally 1 per end)
	Blocked   int    `json:"blocked"`  // streams in a blocked state
	Produced  int64  `json:"produced"` // values across the group's streams
	Diagnosis string `json:"diagnosis,omitempty"`
}

// ConnGroups folds a topology snapshot into per-connection groups,
// skipping streams on dedicated connections (Conn empty).
func ConnGroups(streams []StreamInfo) []ConnGroup {
	byConn := make(map[string]*ConnGroup)
	for _, s := range streams {
		if s.Conn == "" {
			continue
		}
		g := byConn[s.Conn]
		if g == nil {
			g = &ConnGroup{Conn: s.Conn}
			byConn[s.Conn] = g
		}
		if s.Kind == KindSession {
			g.Sessions++
			if g.Diagnosis == "" {
				g.Diagnosis = s.Diagnosis
			}
		} else {
			g.Streams++
			g.Produced += s.Produced
		}
		if s.State == "blocked-put" || s.State == "blocked-take" {
			g.Blocked++
		}
	}
	out := make([]ConnGroup, 0, len(byConn))
	for _, g := range byConn {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Conn < out[j].Conn })
	return out
}

// Handler serves the stream topology as JSON.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		streams := Snapshot()
		enc.Encode(StreamsPayload{
			At:        time.Now(),
			Streams:   streams,
			Conns:     ConnGroups(streams),
			Diagnoses: Diagnoses(),
		})
	})
}
