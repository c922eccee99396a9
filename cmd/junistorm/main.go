// Command junistorm is the load harness for multiplexed remote sessions:
// it opens thousands of concurrent generator streams against one or more
// junicond nodes through a pooled session Dialer, drains them with mixed
// batch sizes and consumer speeds, validates every stream's exact value
// sequence (no losses, no duplicates, no reordering), and reports
// throughput plus latency percentiles from telemetry histograms.
//
// Usage:
//
//	junistorm -addrs 127.0.0.1:9707 -streams 10000
//
//	junistorm -addrs a:9707,b:9707 -streams 4096 -values 500
//	junistorm -streams 1000 -streams-per-conn 1   one connection per stream
//	junistorm -streams 1000 -mixed=false     uniform batch/speed
//	junistorm -json                          machine-readable report
//
// The exit status is the verdict: 0 only when every stream delivered
// exactly 1..values in order with a nil error. Latency is measured two
// ways — time to first value (dial + OPEN + first delivery, the stream
// setup cost the session pool amortizes) and per-Next wait (steady-state
// consumer stall, the §3B credit loop's client-visible latency).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/remote"
	"junicon/internal/telemetry"
	"junicon/internal/value"
)

var (
	hFirst = telemetry.NewHistogram("junistorm.first_value_ns")
	hNext  = telemetry.NewHistogram("junistorm.next_wait_ns")
	// internal/remote's receive-side counters for this process: frames
	// parsed and the connection Reads that delivered them.
	cFramesRx = telemetry.NewCounter("remote.frames_rx")
	cRxReads  = telemetry.NewCounter("remote.rx.reads")
)

type report struct {
	Streams    int     `json:"streams"`
	Values     int     `json:"values_per_stream"`
	Total      int64   `json:"values_total"`
	Errors     int64   `json:"errors"`
	DurationMs float64 `json:"duration_ms"`
	Throughput float64 `json:"values_per_sec"`
	Sessions   int     `json:"sessions"`
	// FramesPerRead is remote.frames_rx ÷ remote.rx.reads on this side: how
	// many frames one read(2) delivered — the receive-side mirror of the
	// daemon's remote.frames_tx ÷ remote.mux.flushes.
	FramesPerRead float64 `json:"rx_frames_per_read"`

	FirstValueMs percentiles `json:"first_value_ms"`
	NextWaitUs   percentiles `json:"next_wait_us"`
}

type percentiles struct {
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

func main() {
	var (
		addrs     = flag.String("addrs", "127.0.0.1:9707", "comma-separated junicond addresses, streams round-robin across them")
		streams   = flag.Int("streams", 1000, "concurrent streams to open")
		values    = flag.Int("values", 100, "values per stream (range 1..values)")
		buffer    = flag.Int("buffer", 64, "per-stream client buffer (credit window)")
		batch     = flag.Int("batch", 0, "VALUES batch size (0 = default; -1 = per-value)")
		mixed     = flag.Bool("mixed", true, "vary batch size per stream across {default, 8, per-value}")
		slowEvery = flag.Int("slow-every", 10, "every Nth stream consumes slowly (0 = none)")
		slowPause = flag.Duration("slow-pause", 200*time.Microsecond, "pause per value on slow streams")
		perConn   = flag.Int("streams-per-conn", 0, "streams per pooled session (0 = default)")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()
	telemetry.SetMetrics(true)

	nodes := strings.Split(*addrs, ",")
	d := &remote.Dialer{StreamsPerConn: *perConn}
	defer d.Close()

	var (
		wg    sync.WaitGroup
		total atomic.Int64
		errs  atomic.Int64
		peakG atomic.Int64
	)
	fail := func(format string, args ...any) {
		errs.Add(1)
		fmt.Fprintf(os.Stderr, "junistorm: "+format+"\n", args...)
	}

	start := time.Now()
	for i := 0; i < *streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := remote.Config{Buffer: *buffer, Batch: *batch}
			if *mixed {
				switch i % 3 {
				case 1:
					cfg.Batch = 8
				case 2:
					cfg.Batch = -1 // per-value frames
				}
			}
			slow := *slowEvery > 0 && i%*slowEvery == *slowEvery-1
			addr := nodes[i%len(nodes)]
			args := []value.V{value.NewInt(1), value.NewInt(int64(*values))}
			p := d.Open(addr, "range", args, cfg)
			defer p.Stop()

			t0 := time.Now()
			expect := int64(1)
			for {
				s := time.Now()
				v, ok := p.Next()
				if !ok {
					break
				}
				if expect == 1 {
					hFirst.Observe(time.Since(t0).Nanoseconds())
				} else {
					hNext.Observe(time.Since(s).Nanoseconds())
				}
				got, iok := value.ToInteger(value.Deref(v))
				if !iok {
					fail("stream %d: non-integer value %s", i, value.Image(v))
					return
				}
				n, _ := got.Int64()
				if n != expect {
					fail("stream %d: value %d, want %d (lost/duplicated/reordered)", i, n, expect)
					return
				}
				expect++
				total.Add(1)
				if slow {
					time.Sleep(*slowPause)
				}
			}
			if err := p.Err(); err != nil {
				fail("stream %d: %v", i, err)
				return
			}
			if expect != int64(*values)+1 {
				fail("stream %d: %d values delivered, want %d", i, expect-1, *values)
			}
		}(i)
		if g := int64(runtime.NumGoroutine()); g > peakG.Load() {
			peakG.Store(g)
		}
	}
	wg.Wait()
	wall := time.Since(start)

	fs, ns := hFirst.Snapshot(), hNext.Snapshot()
	r := report{
		Streams:    *streams,
		Values:     *values,
		Total:      total.Load(),
		Errors:     errs.Load(),
		DurationMs: float64(wall.Microseconds()) / 1e3,
		Throughput: float64(total.Load()) / wall.Seconds(),
		Sessions:   d.Sessions(),

		FramesPerRead: float64(cFramesRx.Load()) / float64(max(cRxReads.Load(), 1)),
		FirstValueMs: percentiles{
			P50: fs.P50 / 1e6, P99: fs.P99 / 1e6, P999: fs.P999 / 1e6, Max: float64(fs.Max) / 1e6,
		},
		NextWaitUs: percentiles{
			P50: ns.P50 / 1e3, P99: ns.P99 / 1e3, P999: ns.P999 / 1e3, Max: float64(ns.Max) / 1e3,
		},
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(r)
	} else {
		fmt.Printf("junistorm: %d streams x %d values against %d node(s)\n",
			r.Streams, r.Values, len(nodes))
		fmt.Printf("  delivered   %d values in %.1fms (%.0f values/s), %d errors\n",
			r.Total, r.DurationMs, r.Throughput, r.Errors)
		fmt.Printf("  sessions    %d pooled (peak %d goroutines)\n", r.Sessions, peakG.Load())
		fmt.Printf("  receive     %d frames in %d reads (%.1f frames/read)\n",
			cFramesRx.Load(), cRxReads.Load(), r.FramesPerRead)
		fmt.Printf("  first value p50 %.2fms  p99 %.2fms  p99.9 %.2fms  max %.2fms\n",
			r.FirstValueMs.P50, r.FirstValueMs.P99, r.FirstValueMs.P999, r.FirstValueMs.Max)
		fmt.Printf("  next wait   p50 %.1fus  p99 %.1fus  p99.9 %.1fus  max %.1fus\n",
			r.NextWaitUs.P50, r.NextWaitUs.P99, r.NextWaitUs.P999, r.NextWaitUs.Max)
	}
	if errs.Load() > 0 {
		os.Exit(1)
	}
}
