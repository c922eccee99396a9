package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"junicon/internal/remote"
	"junicon/internal/value"
)

// The daemon's log lines go through a combining writer. These tests hold it
// to what a direct write to stderr gave: every line whole and in order,
// a lone line written at once, nothing lost on shutdown, and a reader that
// stops draining stalls the loggers instead of growing memory.

// TestLogLinesStayWholeAndOrdered: 32 goroutines × 1000 lines arrive
// complete, un-interleaved and in per-goroutine order.
func TestLogLinesStayWholeAndOrdered(t *testing.T) {
	var sink bytes.Buffer // written by the combining writer's one goroutine only
	logger, flush := newLogger(&sink, false, true)
	const workers, each = 32, 1000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				logger.Info("stream done", "g", g, "i", i, "reason", "eos")
			}
		}()
	}
	wg.Wait()
	flush()
	next := make([]int, workers)
	lines := 0
	sc := bufio.NewScanner(&sink)
	for sc.Scan() {
		var rec struct {
			Msg  string
			G, I int
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Msg != "stream done" {
			t.Fatalf("torn line %q: %v", sc.Text(), err)
		}
		if rec.I != next[rec.G] {
			t.Fatalf("goroutine %d: line %d arrived where %d was due", rec.G, rec.I, next[rec.G])
		}
		next[rec.G]++
		lines++
	}
	if lines != workers*each {
		t.Fatalf("%d lines written, want %d", lines, workers*each)
	}
}

// TestListeningLineNeedsNoPush: the one line the benchmark and the e2e
// tests block on reaches the sink with no later line, flush or timer
// behind it.
func TestListeningLineNeedsNoPush(t *testing.T) {
	r, w := io.Pipe()
	logger, flush := newLogger(w, false, false)
	defer flush()
	defer r.Close()
	logger.Info("listening", "addr", "127.0.0.1:9707")
	got := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(r).ReadString('\n')
		got <- line
	}()
	select {
	case line := <-got:
		if !strings.Contains(line, "msg=listening") || !strings.Contains(line, "addr=127.0.0.1:9707") {
			t.Fatalf("got %q", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the listening line sat in the writer with nothing to push it")
	}
}

// TestStalledStderrStallsLoggers: with nobody reading the sink, logging
// goroutines come to rest once logPending bytes are queued — they do not
// keep producing into memory — and finish once the reader returns.
func TestStalledStderrStallsLoggers(t *testing.T) {
	r, w := io.Pipe()
	logger, flush := newLogger(w, false, false)
	const workers, each = 4, 20000 // ≈ 100 B a line: several times logPending in all
	var logged atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				logger.Info("stream open", "generator", "range", "stream", "1f", "credit", 64)
				logged.Add(1)
			}
		}()
	}
	stable, last := 0, int64(-1)
	for deadline := time.Now().Add(10 * time.Second); stable < 50; {
		if time.Now().After(deadline) {
			t.Fatal("loggers never came to rest against a sink nobody reads")
		}
		if n := logged.Load(); n == last {
			stable++
		} else {
			stable, last = 0, n
		}
		time.Sleep(time.Millisecond)
	}
	if last >= workers*each {
		t.Fatal("every line was accepted with nobody reading: pending is not bounded")
	}
	// ~60 B is the shortest such line: the bound caps what was accepted.
	if most := int64(2 * logPending / 60); last > most {
		t.Fatalf("%d lines accepted behind a stalled sink, bound allows about %d", last, most)
	}
	lines := make(chan int, 1)
	go func() {
		n := 0
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			n++
		}
		lines <- n
	}()
	wg.Wait()
	flush()
	w.Close()
	if n := <-lines; n != workers*each {
		t.Fatalf("%d lines read after the stall cleared, want %d", n, workers*each)
	}
}

// TestSIGTERMLosesNoLogLine: a daemon that served a storm of short streams
// and is then told to stop has, by the time it exits, written every
// `stream done` line and `shutting down` to stderr.
func TestSIGTERMLosesNoLogLine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	cmd := exec.Command(buildDaemon(t), "-addr", "127.0.0.1:0", "-log-json")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	type rec struct{ Msg, Addr, Reason string }
	sc := bufio.NewScanner(stderr)
	var addr string
	for addr == "" && sc.Scan() {
		var r rec
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Msg == "listening" {
			addr = r.Addr
		}
	}
	if addr == "" {
		t.Fatal("no listening line")
	}
	// From here on stderr is read only after the daemon has been told to
	// stop: everything it logs meanwhile sits in the pipe or its writer.
	const streams = 200
	d := &remote.Dialer{}
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < streams/8; i++ {
				p := d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(5)}, remote.Config{Buffer: 8})
				n := 0
				for {
					if _, ok := p.Next(); !ok {
						break
					}
					n++
				}
				if n != 5 || p.Err() != nil {
					t.Errorf("stream delivered %d values, err %v", n, p.Err())
				}
				p.Stop()
			}
		}()
	}
	wg.Wait()
	d.Close()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done, shutting := 0, false
	for sc.Scan() { // to EOF: the daemon has exited and closed stderr
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("torn line %q: %v", sc.Text(), err)
		}
		switch r.Msg {
		case "stream done":
			done++
		case "shutting down":
			shutting = true
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("junicond exit: %v", err)
	}
	if done != streams || !shutting {
		t.Fatalf("stderr at exit holds %d of %d `stream done` lines, `shutting down` %v", done, streams, shutting)
	}
}
