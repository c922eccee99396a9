// Command junicond is the generator-serving daemon: it exposes registered
// generators — and, with -allow-source, vetted Junicon source — over the
// remote-pipe protocol of internal/remote. A junicond worker is the far
// end of a remote pipe: the paper's |>e with the bounded queue stretched
// across a TCP connection, many streams to a connection.
//
// Usage:
//
//	junicond [flags]
//
//	junicond -addr :9707                     serve built-in generators
//	junicond -addr :9707 -allow-source       also serve vetted Junicon source
//	junicond -addr :9707 -checkpoint-dir d   persist stream checkpoints in d
//	junicond -addr :9707 -max-conns 16       bound concurrent connections
//	junicond -addr :9707 -debug-addr :9708   expose /debug/vars, /debug/pprof,
//	                                         /debug/trace, /debug/streams on a
//	                                         second listener
//
// Built-in generators:
//
//	range         integers lo to hi (two integer arguments)
//	wc.mapreduce  distributed word-count partials (internal/wordcount)
//	wc.hash       per-word hash stream (internal/wordcount)
//
// The daemon logs one structured line (log/slog) per stream open/close and
// refusal, carrying the stream's telemetry ID so log lines correlate with
// trace events; -quiet silences it, -log-json switches to JSON. Lines are
// written to stderr through a combining writer (see newLogger). With
// -debug-addr set, telemetry metrics are enabled and served as expvar JSON
// at /debug/vars, pprof at /debug/pprof/, and buffered trace events as
// JSONL at /debug/trace; live-stream introspection is enabled too, served
// as a topology snapshot at /debug/streams, with a stall watchdog logging
// a structured diagnosis (cause, counters, labeled goroutine stacks) for
// any stream blocked past -stall-threshold. On SIGINT/SIGTERM it stops
// accepting, waits for in-flight streams, and exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"junicon/internal/combine"
	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/remote"
	"junicon/internal/telemetry"
	"junicon/internal/value"
	"junicon/internal/wordcount"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9707", "listen address")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof and /debug/trace on this address (enables metrics)")
		allowSource = flag.Bool("allow-source", false, "serve vetted Junicon source streams")
		ckptDir     = flag.String("checkpoint-dir", "", "persist each stream's latest checkpoint snapshot in this directory")
		maxConns    = flag.Int("max-conns", remote.DefaultMaxConns, "maximum concurrent connections")
		idleTimeout = flag.Duration("idle-timeout", remote.DefaultIdleTimeout, "client silence tolerated before dropping a stream")
		quiet       = flag.Bool("quiet", false, "suppress per-stream logging")
		logJSON     = flag.Bool("log-json", false, "emit logs as JSON (default: text)")
		stallAfter  = flag.Duration("stall-threshold", 10*time.Second, "watchdog: diagnose streams blocked without activity this long (with -debug-addr)")
	)
	flag.Parse()

	logger, flushLog := newLogger(os.Stderr, *quiet, *logJSON)
	defer flushLog()

	srv := remote.NewServer()
	srv.AllowSource = *allowSource
	srv.CheckpointDir = *ckptDir
	srv.MaxConns = *maxConns
	srv.IdleTimeout = *idleTimeout
	srv.Log = logger

	srv.Register("range", func(args []value.V) (core.Gen, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("range: want [lo, hi], got %d args", len(args))
		}
		lo, ok1 := value.ToInteger(args[0])
		hi, ok2 := value.ToInteger(args[1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("range: integer arguments required")
		}
		l, lok := lo.Int64()
		h, hok := hi.Int64()
		if !lok || !hok {
			return nil, fmt.Errorf("range: arguments out of range")
		}
		return core.IntRange(l, h), nil
	})
	wordcount.RegisterWordCount(srv)

	if *debugAddr != "" {
		telemetry.SetMetrics(true)
		telemetry.StartTrace(telemetry.DefaultRingSize)
		telemetry.PublishExpvar()
		// Live introspection rides on the same opt-in: every stream opened
		// from here on is listed, the watchdog diagnoses stalls, and
		// /debug/streams renders the topology.
		inspect.Enable()
		inspect.StartWatchdog(inspect.WatchdogConfig{
			Threshold: *stallAfter,
			Log:       logger,
			Stacks:    true,
		})
		mux := http.NewServeMux()
		mux.Handle("/debug/streams", inspect.Handler())
		mux.Handle("/", telemetry.Handler("junicond"))
		dbg := &http.Server{Addr: *debugAddr, Handler: mux}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug server failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("debug server listening", "addr", *debugAddr)
	}

	bound, err := srv.Start(*addr)
	if err != nil {
		flushLog()
		fmt.Fprintf(os.Stderr, "junicond: %v\n", err)
		os.Exit(1)
	}
	logger.Info("listening",
		"addr", bound.String(),
		"generators", strings.Join(srv.Names(), ", "),
		"source_streams", *allowSource)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	<-sigc
	logger.Info("shutting down", "streams_served", srv.Served())
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		logger.Warn("streams still draining after 10s, exiting anyway")
	}
}

// logPending bounds the log lines queued behind an in-flight write to
// stderr; past it, logging goroutines block as they would on a full pipe.
const logPending = 1 << 20

// newLogger builds the daemon's structured logger: text to w (stderr) by
// default, JSON with -log-json, discarded with -quiet. Lines go through a
// combining writer — the session transport's swap-buffer mechanism — so a
// storm's two lines per stream cost one write(2) per batch that gathered
// while the previous write was in flight, in order, with no timer: a line
// that finds the writer idle is written at once. flush hands everything
// queued to w and must run on every exit path.
func newLogger(w io.Writer, quiet, json bool) (logger *slog.Logger, flush func()) {
	if quiet {
		return slog.New(slog.DiscardHandler), func() {}
	}
	cw := combine.New(w, logPending)
	flush = func() { cw.Close() }
	if json {
		return slog.New(slog.NewJSONHandler(cw, nil)), flush
	}
	return slog.New(slog.NewTextHandler(cw, nil)), flush
}
