package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{TS: 1000, Dur: 500, Stream: 0xAB00000001, Kind: KindValue, Name: "range", Arg: 1},
		{TS: 2000, Stream: 0xAB00000001, Kind: KindStreamOpen, Name: "range"},
		{TS: 3000, Dur: 100, Kind: KindSpan, Name: "eval"},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, Tag("workerA", sampleEvents())); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d events, want 3", len(got))
	}
	if got[0].Proc != "workerA" || got[0].Kind != "value" || got[0].Stream != "ab00000001" {
		t.Fatalf("unexpected first event %+v", got[0])
	}
	if got[2].Stream != "" {
		t.Fatalf("stream-less event got stream %q", got[2].Stream)
	}
}

func TestReadJSONLConcatenatedAndMalformed(t *testing.T) {
	var a, b bytes.Buffer
	WriteJSONL(&a, Tag("p1", sampleEvents()[:1]))
	WriteJSONL(&b, Tag("p2", sampleEvents()[1:]))
	merged := a.String() + "\n" + b.String()
	evs, err := ReadJSONL(strings.NewReader(merged))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("merged read %d events, want 3", len(evs))
	}
	if _, err := ReadJSONL(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("malformed line did not error")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tagged := append(Tag("coordinator", sampleEvents()), Tag("worker", sampleEvents())...)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tagged); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// 2 process_name metadata records + 6 events.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d trace events, want 8", len(doc.TraceEvents))
	}
	pids := map[float64]bool{}
	var spans, instants, metas int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			metas++
		case "X":
			spans++
			if ev["dur"].(float64) <= 0 {
				t.Fatalf("span with non-positive dur: %v", ev)
			}
		case "i":
			instants++
		}
		pids[ev["pid"].(float64)] = true
	}
	if metas != 2 || spans != 4 || instants != 2 {
		t.Fatalf("metas/spans/instants = %d/%d/%d, want 2/4/2", metas, spans, instants)
	}
	if len(pids) != 2 {
		t.Fatalf("got %d distinct pids, want 2", len(pids))
	}
}

func TestDebugHandler(t *testing.T) {
	SetMetrics(true)
	defer SetMetrics(false)
	NewCounter("test.http.counter").Add(9)
	StartTrace(128)
	defer StopTrace()
	Emit(5, KindValue, "g", 1)

	h := Handler("test-proc")

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	var snap map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/metrics not JSON: %v", err)
	}
	if snap["test.http.counter"].(float64) != 9 {
		t.Fatalf("metrics counter = %v, want 9", snap["test.http.counter"])
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if !strings.Contains(rec.Body.String(), `"test.http.counter"`) {
		t.Fatal("/debug/vars does not include registry metrics")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	evs, err := ReadJSONL(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Proc != "test-proc" || evs[0].Kind != "value" {
		t.Fatalf("unexpected /debug/trace payload %+v", evs)
	}
}
