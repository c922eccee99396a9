package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/junicond from the module beside this one into
// dir. It runs on every set-up: after the first it is a build-cache hit,
// which is what a user restarting the system pays.
func buildDaemon(src, dir string) (string, error) {
	bin := filepath.Join(dir, "junicond")
	cmd := exec.Command("go", "build", "-o", bin, "junicon/cmd/junicond")
	cmd.Dir = src
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build junicond: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running junicond child process.
type daemon struct {
	cmd   *exec.Cmd
	addr  string // bound stream address, read from the "listening" log line
	debug string // /debug/vars base URL; empty unless started with debug
	done  chan struct{}
}

// startDaemon starts junicond on a kernel-chosen port and waits for its
// "listening" log line. With debug set the daemon also serves /debug/vars
// (which turns its telemetry and inspection on): junicond logs the debug
// flag verbatim rather than the bound address, so that port is reserved
// here and handed over. Another process may take the port in between — a
// second set of runs on the same machine, say — so the child must prove
// that the listener is its own, and a child that lost the port is
// replaced by one on another.
func startDaemon(bin string, debug bool) (*daemon, error) {
	var d *daemon
	var err error
	for try := 0; try < 5; try++ {
		if d, err = startOnce(bin, debug); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func startOnce(bin string, debug bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-log-json"}
	d := &daemon{done: make(chan struct{})}
	if debug {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()
		args = append(args, "-debug-addr", addr)
		d.debug = "http://" + addr
	}
	d.cmd = exec.Command(bin, args...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	lines := bufio.NewReader(stderr)
	found := make(chan error, 1)
	go func() {
		defer close(d.done)
		for {
			line, err := lines.ReadBytes('\n')
			if err != nil {
				found <- fmt.Errorf("junicond exited before listening: %v", err)
				return
			}
			var rec struct{ Msg, Addr string }
			if json.Unmarshal(line, &rec) == nil && rec.Msg == "listening" {
				d.addr = rec.Addr
				break
			}
		}
		found <- nil
		// The daemon logs two lines per stream; keep the pipe drained so
		// it never blocks on a full one.
		io.Copy(io.Discard, lines)
	}()
	select {
	case err := <-found:
		if err != nil {
			d.stop()
			return nil, err
		}
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("junicond: no listening line within 20s")
	}
	if debug {
		if err := d.waitDebug(); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// waitDebug waits for the debug listener to answer and checks that the
// process behind it is this child: expvar publishes the command line, and
// the binary's path lies in a directory made for this set-up alone.
func (d *daemon) waitDebug() error {
	var err error
	for i := 0; i < 100; i++ {
		var all debugVars
		if all, err = d.fetch(); err == nil {
			if len(all.Cmdline) == 0 || all.Cmdline[0] != d.cmd.Path {
				return fmt.Errorf("junicond debug listener %s belongs to another process: %v", d.debug, all.Cmdline)
			}
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("junicond debug listener: %v", err)
}

// debugVars is what /debug/vars serves: expvar's own command line and the
// daemon's telemetry registry under the key "junicon".
type debugVars struct {
	Cmdline []string                   `json:"cmdline"`
	Junicon map[string]json.RawMessage `json:"junicon"`
}

func (d *daemon) fetch() (debugVars, error) {
	var all debugVars
	resp, err := http.Get(d.debug + "/debug/vars")
	if err != nil {
		return all, err
	}
	defer resp.Body.Close()
	return all, json.NewDecoder(resp.Body).Decode(&all)
}

// vars fetches the daemon's telemetry registry.
func (d *daemon) vars() (map[string]json.RawMessage, error) {
	all, err := d.fetch()
	return all.Junicon, err
}

// stop asks the daemon to drain and exit, and waits until it has.
func (d *daemon) stop() {
	if d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-d.done // stderr reader finished: safe to Wait
		d.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-exited
	}
}

// tempDir makes a scratch directory for built binaries under out.
func tempDir(out string) (string, error) {
	out, err := filepath.Abs(out) // go build runs in another directory
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "build-")
}
