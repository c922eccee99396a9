package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"junicon/internal/remote"
	"junicon/internal/value"
)

// End-to-end streaming across real processes: two junicond children and
// one client process (this test) streaming the same generator from both,
// batched and per value. The daemons are the shipped binary, not
// in-process servers, so the flag plumbing, the session handshake and the
// frame traffic all cross genuine process boundaries.

var (
	buildOnce sync.Once
	daemonBin string
	buildErr  error
)

// buildDaemon compiles junicond once per test run into a shared temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "junicond-e2e")
		if err != nil {
			buildErr = err
			return
		}
		daemonBin = filepath.Join(dir, "junicond")
		out, err := exec.Command("go", "build", "-o", daemonBin, "junicon/cmd/junicond").CombinedOutput()
		if err != nil {
			buildErr = err
			t.Logf("build output: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("build junicond: %v", buildErr)
	}
	return daemonBin
}

// startDaemon launches junicond on an ephemeral port and parses the bound
// address from its "listening" log line.
func startDaemon(t *testing.T, extraArgs ...string) string {
	t.Helper()
	return launchDaemon(t, "127.0.0.1:0", extraArgs...).addr
}

// daemonProc is a junicond child process the test can SIGKILL mid-stream
// — the crash-recovery tests need the handle, not just the address.
type daemonProc struct {
	addr     string
	cmd      *exec.Cmd
	waitOnce sync.Once
}

// wait reaps the process exactly once; both kill and the cleanup funnel
// through it so Wait is never called twice.
func (d *daemonProc) wait() {
	d.waitOnce.Do(func() { d.cmd.Wait() })
}

// kill delivers SIGKILL — the unclean death the checkpoint layer exists
// for — and reaps the process.
func (d *daemonProc) kill() {
	d.cmd.Process.Kill()
	d.wait()
}

// launchDaemon starts junicond on listen (a fixed address, or
// "127.0.0.1:0" for an ephemeral port) and parses the bound address from
// its "listening" log line. The returned handle lets a test kill the
// process and restart a replacement on the same address.
func launchDaemon(t *testing.T, listen string, extraArgs ...string) *daemonProc {
	t.Helper()
	bin := buildDaemon(t)
	args := append([]string{"-addr", listen}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start junicond: %v", err)
	}
	d := &daemonProc{cmd: cmd}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { d.wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
	// The daemon logs `msg=listening addr=127.0.0.1:PORT ...` once bound.
	// Keep draining stderr afterwards so a chatty daemon never blocks on a
	// full pipe.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if !strings.Contains(line, "msg=listening") {
				continue
			}
			for _, tok := range strings.Fields(line) {
				if a, ok := strings.CutPrefix(tok, "addr="); ok {
					select {
					case addrc <- a:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		d.addr = addr
		return d
	case <-time.After(10 * time.Second):
		t.Fatal("junicond did not report a listening address")
		return nil
	}
}

func drainRange(t *testing.T, addr string, cfg remote.Config, n int64) []int64 {
	t.Helper()
	p := remote.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(n)}, cfg)
	defer p.Stop()
	var got []int64
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("drain from %s stalled after %d values", addr, len(got))
		}
		v, ok := p.Next()
		if !ok {
			break
		}
		i, _ := value.ToInteger(value.Deref(v))
		x, _ := i.Int64()
		got = append(got, x)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("stream from %s errored: %v", addr, err)
	}
	return got
}

func TestE2ETwoDaemonsBatchingInterop(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const n = 500
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i + 1)
	}
	for _, addr := range []string{startDaemon(t, "-quiet=false"), startDaemon(t)} {
		// Batching on by default, then a client that takes one VALUES frame
		// per value: the same daemon serves both, the same sequence.
		for _, cfg := range []remote.Config{{Buffer: 64}, {Buffer: 64, Batch: -1}} {
			if got := drainRange(t, addr, cfg, n); !slices.Equal(got, want) {
				t.Fatalf("daemon %s, batch %d: %d values, want 1..%d in order", addr, cfg.Batch, len(got), n)
			}
		}
	}
}
