// Package telemetry is the metrics and trace substrate of the concurrent
// generator runtime — the repo's answer to the paper's closing future-work
// item ("program monitoring and debugging within a transformational
// framework", §9). Transports do not report here directly: each observed
// stream keeps one record (internal/inspect) that feeds this package's two
// sinks, and only process-wide facts that belong to no stream (kernel
// protocol resumes, frames, reads, checkpoints) are counted in place:
//
//   - a metrics registry of atomic counters, read-time gauges and
//     log₂-bucketed histograms (Snapshot, expvar exposure);
//   - a lock-free trace-event ring of span-like records carrying stream
//     IDs that are propagated across the remote protocol, so a
//     distributed run can be stitched into one timeline;
//   - exporters for the buffered events: JSONL (one event per line,
//     mergeable across processes) and Chrome trace_event format
//     (chrome://tracing, Perfetto);
//   - an HTTP debug handler (/debug/vars, /debug/metrics, /debug/trace,
//     /debug/pprof) that junicond mounts.
//
// # Cost model
//
// Everything is off by default, and the disabled path is deliberately
// branch-cheap: On() / TraceOn() / Active() are each a single atomic load
// plus a predictable branch, so the kernel hot loop pays effectively
// nothing until observation is asked for. The package has no dependencies
// outside the standard library.
package telemetry

import (
	"sync/atomic"
	"time"
)

// metricsOn gates metric recording. Trace recording is gated separately
// by the installed ring (see trace.go); both gates are single atomic
// loads on the hot path.
var metricsOn atomic.Bool

// SetMetrics enables or disables metric recording process-wide.
func SetMetrics(on bool) { metricsOn.Store(on) }

// On reports whether metric recording is enabled. Instrumented code
// guards every metric update with it, keeping the disabled path to one
// atomic load and a branch.
func On() bool { return metricsOn.Load() }

// Active reports whether any observation — metrics or tracing — is on.
// inspect.Open checks it once per stream to decide whether the stream
// keeps a record at all.
func Active() bool { return On() || TraceOn() }

// ---- stream identifiers ----

// Stream IDs tie the events of one logical generator stream together:
// its record allocates one (inspect.Open), and a remote pipe sends its
// ID in the OPEN frame so the server's producer events carry the same ID
// — that is what lets a distributed trace be stitched end-to-end. The
// high 32 bits are a per-process seed so IDs from different processes
// (coordinator, workers) do not collide in a merged trace.
var (
	streamSeed uint64
	streamCtr  atomic.Uint64
)

func init() {
	// The seed only needs to differ between cooperating processes; the
	// start time's nanoseconds mixed with a multiplicative hash is plenty
	// without reaching for crypto/rand on every process start.
	ns := uint64(time.Now().UnixNano())
	streamSeed = (ns * 0x9E3779B97F4A7C15) &^ 0xFFFFFFFF
	if streamSeed == 0 {
		streamSeed = 1 << 32
	}
}

// NextStream allocates a process-unique stream identifier, never 0.
// 0 is reserved to mean "no stream" throughout the event model.
func NextStream() uint64 {
	return streamSeed | (streamCtr.Add(1) & 0xFFFFFFFF)
}
