package remote

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/pipe"
	"junicon/internal/value"
)

// The lifecycle table. There is one way onto the wire, so every way a
// stream's life can go — EOS, Stop mid-stream, Restart, Deadline, KillConn
// with Recover, Migrate, producer error — is one case, run once per
// constructor: the package-level Open/OpenSource (a private session per
// pipe) and a Dialer's (a pooled one). The cases are the tests below; the
// constructors are this file's one table.

// openFunc is the shape Open and Dialer.Open share.
type openFunc = func(addr, name string, args []value.V, cfg Config) *RemotePipe

// constructors names both ways to make a named-generator pipe, for tests
// that need no server of their own.
func constructors(d *Dialer) map[string]openFunc {
	return map[string]openFunc{"Open": Open, "Dialer": d.Open}
}

// opener is one row: two servers (B is the migration target) and the
// constructors under test.
type opener struct {
	srv, srvB   *Server
	addr, addrB string
	open        openFunc
	openSource  func(addr, program, expr string, args []value.V, cfg Config) *RemotePipe
}

// overConstructors runs body once per constructor against fresh servers.
// A package-level pipe owns its connection, so its row also asserts what
// one connection per stream used to give for free: once the pipe has
// ended, no connection, no stream and no goroutine of it is left on
// either end.
func overConstructors(t *testing.T, mutate func(*Server), body func(t *testing.T, o opener)) {
	servers := func(t *testing.T) opener {
		srv, addr := startServer(t, mutate)
		srvB, addrB := startServer(t, mutate)
		return opener{srv: srv, srvB: srvB, addr: addr, addrB: addrB}
	}
	t.Run("Open", func(t *testing.T) {
		o := servers(t)
		o.open, o.openSource = Open, OpenSource
		base := runtime.NumGoroutine()
		body(t, o)
		eventually(t, "connections, streams and goroutines released", func() bool {
			return o.srv.ActiveConns()+o.srvB.ActiveConns() == 0 &&
				o.srv.ActiveStreams()+o.srvB.ActiveStreams() == 0 &&
				runtime.NumGoroutine() <= base
		})
	})
	t.Run("Dialer", func(t *testing.T) {
		o := servers(t)
		d := testDialer(false)
		defer d.Close()
		o.open, o.openSource = d.Open, d.OpenSource
		body(t, o)
	})
}

func TestRemoteFailureIsCleanEOS(t *testing.T) {
	overConstructors(t, nil, func(t *testing.T, o opener) {
		p := o.open(o.addr, "fail", nil, testConfig())
		defer p.Stop()
		within(t, 5*time.Second, "next", func() {
			if _, ok := p.Next(); ok {
				t.Error("empty generator produced a value")
			}
		})
		if err := p.Err(); err != nil {
			t.Fatalf("Icon failure is not an error; got %v", err)
		}
	})
}

// TestStreamAccounting stops a pipe mid-stream.
func TestStreamAccounting(t *testing.T) {
	overConstructors(t, nil, func(t *testing.T, o opener) {
		p := o.open(o.addr, "range", []value.V{value.NewInt(1), value.NewInt(1000)}, testConfig())
		p.StartEager()
		within(t, 5*time.Second, "first value", func() { p.Next() })
		if o.srv.ActiveStreams() != 1 || o.srv.ActiveConns() != 1 {
			t.Fatalf("mid-stream accounting: streams=%d conns=%d", o.srv.ActiveStreams(), o.srv.ActiveConns())
		}
		p.Stop()
		eventually(t, "producer released after Stop", func() bool { return o.srv.ActiveStreams() == 0 })
		if o.srv.Served() != 1 {
			t.Fatalf("served=%d, want 1", o.srv.Served())
		}
	})
}

// TestStoppedPipeYieldsNothing: "further Nexts fail until Restart" means
// the values a producer had already buffered are gone with it — a closed
// queue drains before it fails, so Stop must not leave that queue in
// place — nor the run the consumer has already taken out of it. One table,
// because the contract is one: local pipes with the run at its default,
// capped, and caught mid-run; remote pipes over a private and a pooled
// session.
func TestStoppedPipeYieldsNothing(t *testing.T) {
	_, addr := startServer(t, nil)
	cfg := testConfig()
	d := testDialer(false)
	defer d.Close()
	type stoppable interface {
		value.Gen
		Stop()
	}
	local := func(p *pipe.Pipe) (stoppable, func() int) {
		return p, func() int { return p.Out().Len() }
	}
	// A remote consumer takes runs as a local one does, and a run can take
	// everything the server has sent: remote rows run with runs of one, so
	// what arrives past the first value waits in the queue.
	rcfg := cfg
	rcfg.Batch = -1
	remote := func(p *RemotePipe) (stoppable, func() int) {
		return p, func() int { return p.Out().Len() }
	}
	src := func() core.Stepper { return core.NewFirstClass(core.IntRange(42, 100)) }
	args := []value.V{value.NewInt(42), value.NewInt(100)}
	rows := map[string]func() (stoppable, func() int){
		"pipe.New": func() (stoppable, func() int) { return local(pipe.New(src(), cfg.Buffer)) },
		"pipe.FromGenBatched": func() (stoppable, func() int) {
			return local(pipe.FromGenBatched(core.IntRange(42, 100), cfg.Buffer, 4))
		},
		"pipe.New, run held": func() (stoppable, func() int) {
			// Started ahead of the first Next the producer fills the queue,
			// so that Next takes a whole run and Stop finds all but one of
			// its values still in the consumer's hands.
			p := pipe.New(src(), cfg.Buffer)
			p.StartEager()
			for p.Out().Len() < cfg.Buffer {
				runtime.Gosched()
			}
			return local(p)
		},
		"remote.Open": func() (stoppable, func() int) { return remote(Open(addr, "range", args, rcfg)) },
		"Dialer.Open": func() (stoppable, func() int) { return remote(d.Open(addr, "range", args, rcfg)) },
	}
	for name, mk := range rows {
		t.Run(name, func(t *testing.T) {
			p, buffered := mk()
			within(t, 5*time.Second, "first value", func() {
				if got := drainInts(t, p, 1); len(got) != 1 || got[0] != 42 {
					t.Errorf("first Next = %v, want [42]", got)
				}
			})
			eventually(t, "producer ran ahead into the buffer", func() bool { return buffered() > 0 })
			p.Stop()
			if v, ok := p.Next(); ok {
				t.Fatalf("Next after Stop = %s with %d values still buffered, want failure", value.Image(v), buffered())
			}
		})
	}
}

func TestRestartReopensFreshStream(t *testing.T) {
	overConstructors(t, nil, func(t *testing.T, o opener) {
		p := o.open(o.addr, "range", []value.V{value.NewInt(1), value.NewInt(3)}, testConfig())
		defer p.Stop()
		within(t, 10*time.Second, "restart cycle", func() {
			first := drainInts(t, p, 2)
			p.Restart()
			second := drainInts(t, p, 100)
			if len(first) != 2 || len(second) != 3 || second[0] != 1 {
				t.Errorf("restart: first %v, second %v", first, second)
			}
		})
		if p.Err() != nil {
			t.Fatalf("restart left err: %v", p.Err())
		}
	})
}

func TestDeadlineExpirySurfacesAsErr(t *testing.T) {
	overConstructors(t, nil, func(t *testing.T, o opener) {
		release := make(chan struct{})
		o.srv.Register("stall", func([]value.V) (core.Gen, error) {
			return core.NewGen(func(yield func(value.V) bool) {
				yield(value.NewInt(1))
				<-release // a live peer with nothing to say
			}), nil
		})
		cfg := testConfig()
		cfg.Deadline = 150 * time.Millisecond
		cfg.Batch = -1 // a value stuck behind a stalled generator would wait in a batch
		p := o.open(o.addr, "stall", nil, cfg)
		defer p.Stop()
		within(t, 5*time.Second, "deadline", func() {
			if _, ok := p.Next(); !ok {
				t.Error("first value should arrive")
			}
			start := time.Now()
			if _, ok := p.Next(); ok {
				t.Error("stalled stream produced a value")
			}
			if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
				t.Errorf("Next failed after %v, before the deadline", elapsed)
			}
		})
		if p.Err() != ErrDeadline {
			t.Fatalf("want ErrDeadline, got %v", p.Err())
		}
		close(release) // a producer inside its generator is not the server's to stop
	})
}

// TestCrashRecoveryResumesSequence is the protocol-level crash drill: kill
// the connection mid-stream and require the recovered pipe to deliver the
// exact remaining suffix — via resume when a checkpoint landed, via replay
// otherwise.
func TestCrashRecoveryResumesSequence(t *testing.T) {
	for _, interval := range []int{0, 3} {
		name := "replay"
		if interval > 0 {
			name = "snapshot"
		}
		t.Run(name, func(t *testing.T) {
			overConstructors(t, func(s *Server) { s.AllowSource = true }, func(t *testing.T, o opener) {
				cfg := testConfig()
				cfg.Recover = true
				cfg.CheckpointEvery = interval
				cfg.RecoverWait = 5 * time.Second
				p := o.openSource(o.addr, towerProgram, "gen(1, 30)", nil, cfg)
				defer p.Stop()
				got := drainInts(t, p, 11)
				p.KillConn()
				within(t, 10*time.Second, "recovery drain", func() {
					got = append(got, drainInts(t, p, 100)...)
				})
				if p.Err() != nil {
					t.Fatalf("err after recovery: %v", p.Err())
				}
				assertInts(t, got, wantRange(1, 30))
			})
		})
	}
}

// TestLiveMigrationMovesStream: iterate a stream on node A, migrate to
// node B mid-iteration, and require one unbroken sequence. Both the
// snapshot handshake (SNAPREQ) and the resulting resume on B land here.
func TestLiveMigrationMovesStream(t *testing.T) {
	overConstructors(t, func(s *Server) { s.AllowSource = true }, func(t *testing.T, o opener) {
		cfg := testConfig()
		cfg.CheckpointEvery = 4
		p := o.openSource(o.addr, towerProgram, "gen(1, 40)", nil, cfg)
		defer p.Stop()
		got := drainInts(t, p, 13)
		within(t, 10*time.Second, "migration", func() {
			if err := p.Migrate(o.addrB); err != nil {
				t.Errorf("migrate: %v", err)
			}
		})
		within(t, 10*time.Second, "post-migration drain", func() {
			got = append(got, drainInts(t, p, 100)...)
		})
		if p.Err() != nil {
			t.Fatalf("err after migration: %v", p.Err())
		}
		assertInts(t, got, wantRange(1, 40))
		// The target genuinely served the tail: node B saw a stream.
		if o.srvB.Served() == 0 {
			t.Fatal("target node served no stream")
		}
	})
}

// TestMigrateTwiceBeforeDraining: a second Migrate can come before the
// consumer has drained what the first left in its hands. Each incarnation
// hands on to the one its Migrate opened, so the sequence stays unbroken
// across both cut-overs.
func TestMigrateTwiceBeforeDraining(t *testing.T) {
	overConstructors(t, func(s *Server) { s.AllowSource = true }, func(t *testing.T, o opener) {
		p := o.openSource(o.addr, towerProgram, "gen(1, 40)", nil, testConfig())
		defer p.Stop()
		got := drainInts(t, p, 5)
		within(t, 10*time.Second, "two migrations", func() {
			for _, target := range []string{o.addrB, o.addr} {
				if err := p.Migrate(target); err != nil {
					t.Errorf("migrate to %s: %v", target, err)
				}
			}
		})
		within(t, 10*time.Second, "post-migration drain", func() {
			got = append(got, drainInts(t, p, 100)...)
		})
		if p.Err() != nil {
			t.Fatalf("err after migration: %v", p.Err())
		}
		assertInts(t, got, wantRange(1, 40))
	})
}

func TestProducerRuntimeErrorPropagates(t *testing.T) {
	overConstructors(t, nil, func(t *testing.T, o opener) {
		p := o.open(o.addr, "boom", nil, testConfig())
		defer p.Stop()
		within(t, 5*time.Second, "drain", func() {
			if got := drainInts(t, p, 100); len(got) != 1 {
				t.Errorf("want the one good value before the error, got %v", got)
			}
		})
		err, ok := p.Err().(*RemoteError)
		if !ok {
			t.Fatalf("want *RemoteError, got %v", p.Err())
		}
		if err.Msg == "" {
			t.Fatal("empty error message")
		}
	})
}

// TestErrorProseIsNotSniffed: what a stream's ERR means is its class byte,
// never its wording. A served expression whose runtime error quotes the
// words a refused resume once carried is a producer error like any other:
// under Recover the pipe delivers what came before it, fails, and dials
// nothing again. (The client used to grep those words out of the message,
// take the error for a rejected resume, and redial and replay forever.)
func TestErrorProseIsNotSniffed(t *testing.T) {
	overConstructors(t, func(s *Server) { s.AllowSource = true }, func(t *testing.T, o opener) {
		cfg := testConfig()
		cfg.Recover = true
		p := o.openSource(o.addr, "", `(1 to 3) | (1 + "resume rejected")`, nil, cfg)
		defer p.Stop()
		within(t, 5*time.Second, "drain to the producer error", func() {
			assertInts(t, drainInts(t, p, 100), wantRange(1, 3))
		})
		re, ok := p.Err().(*RemoteError)
		if !ok || re.Class != ClassProducer || !strings.Contains(re.Msg, "resume rejected") {
			t.Fatalf("Err = %#v, want a producer-class *RemoteError quoting the operand", p.Err())
		}
		if got := o.srv.Served(); got != 1 {
			t.Fatalf("server opened %d streams for one pipe, want 1", got)
		}
	})
}

// The consumer contract. A pipe's consumer side — lazy start and
// StartEager, Size, Stop, Restart, Refresh, First — is one contract
// whatever carries the producer's values: a goroutine of this process
// (pipe.FromGen) or a stream from a server (Open). TestConsumerContract
// runs one script over both.

// consumer is the surface the contract is about.
type consumer interface {
	core.Stepper
	value.Gen
	value.Sized
	Stop()
	StartEager()
	Err() error
}

// lockedCount is 1, 2, …, n under a lock. FromGen's Restart and Refresh
// restart the generator a stopped producer may still be about to call, so
// its state is locked; i is how far the producer has run.
type lockedCount struct {
	mu   sync.Mutex
	i, n int64
}

func (g *lockedCount) Next() (value.V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.i == g.n {
		return nil, false
	}
	g.i++
	return value.NewInt(g.i), true
}

func (g *lockedCount) Restart() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.i = 0
}

func (g *lockedCount) at() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int(g.i)
}

// stallAfterOne yields 1, then waits for release before yielding 2.
func stallAfterOne(release <-chan struct{}) core.Gen {
	return core.NewGen(func(yield func(value.V) bool) {
		if !yield(value.NewInt(1)) {
			return
		}
		<-release
		yield(value.NewInt(2))
	})
}

// raisesOnce yields 1 to 5, but its first evaluation raises after the
// first value: a producer error that a restart must not inherit.
type raisesOnce struct {
	mu         sync.Mutex
	runs, i, n int64
}

func (g *raisesOnce) Next() (value.V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.i == g.n {
		return nil, false
	}
	if g.i++; g.runs == 0 && g.i == 2 {
		value.Raise(value.ErrNumeric, "numeric expected", value.String("x"))
	}
	return value.NewInt(g.i), true
}

func (g *raisesOnce) Restart() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.runs++
	g.i = 0
}

// first is the future's take: First where the consumer declares it, else
// what First is — the first Next, then Stop.
func first(c consumer) (value.V, bool) {
	if f, ok := c.(interface{ First() (value.V, bool) }); ok {
		return f.First()
	}
	v, ok := c.Next()
	c.Stop()
	return v, ok
}

func TestConsumerContract(t *testing.T) {
	release := make(chan struct{})
	srv, addr := startServer(t, func(s *Server) {
		s.Register("stall", func([]value.V) (core.Gen, error) { return stallAfterOne(release), nil })
		var opens atomic.Int64
		s.Register("raiseOnce", func([]value.V) (core.Gen, error) {
			return &raisesOnce{runs: opens.Add(1) - 1, n: 5}, nil
		})
	})
	defer close(release) // before the server's Close, which waits for its producers
	type row struct {
		// count opens a consumer of 1 to 100; ran reports how many times
		// its producer has been started, and settle waits until a stopped
		// producer can no longer touch what a restart reuses.
		count func() (c consumer, ran func() int, settle func())
		stall func() consumer
		// raiseOnce opens a consumer whose first evaluation raises after
		// one value and whose every later one delivers 1 to 5.
		raiseOnce func() consumer
	}
	rows := map[string]row{
		"pipe.FromGen": {
			// Buffer 1: one value queued, one in the producer's hand, none
			// held by the consumer, so where the producer parks is known.
			count: func() (consumer, func() int, func()) {
				g := &lockedCount{n: 100}
				p := pipe.FromGen(g, 1)
				settle := func() {
					eventually(t, "the producer parked at its bound", func() bool { return g.at() == p.Size()+2 })
				}
				return p, g.at, settle
			},
			stall:     func() consumer { return pipe.FromGen(stallAfterOne(release), 1) },
			raiseOnce: func() consumer { return pipe.FromGen(&raisesOnce{n: 5}, 1) },
		},
		"remote.Open": {
			count: func() (consumer, func() int, func()) {
				before := srv.Served()
				p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(100)}, testConfig())
				return p, func() int { return int(srv.Served() - before) }, func() {}
			},
			stall:     func() consumer { return Open(addr, "stall", nil, testConfig()) },
			raiseOnce: func() consumer { return Open(addr, "raiseOnce", nil, testConfig()) },
		},
	}
	for name, r := range rows {
		t.Run(name, func(t *testing.T) {
			ints := func(c consumer, n int) string { return fmt.Sprint(drainInts(t, c, n)) }
			within(t, 10*time.Second, "the script", func() {
				c, ran, settle := r.count()
				defer c.Stop()
				if ran() != 0 {
					t.Error("the producer started before the first Next")
				}
				c.StartEager()
				eventually(t, "StartEager starting the producer", func() bool { return ran() > 0 })

				if got := ints(c, 3); got != "[1 2 3]" || c.Size() != 3 {
					t.Errorf("three Nexts delivered %s with Size %d, want [1 2 3] and 3", got, c.Size())
				}

				settle()
				c.Restart()
				if c.Size() != 0 {
					t.Errorf("Size = %d after Restart, want 0", c.Size())
				}
				if got := ints(c, 2); got != "[1 2]" {
					t.Errorf("after Restart %s, want a fresh evaluation [1 2]", got)
				}

				settle()
				q := c.Refresh().(consumer)
				defer q.Stop()
				if v, ok := c.Next(); ok {
					t.Errorf("the proxy Refresh replaced delivered %s", value.Image(v))
				}
				if got := ints(q, 2); got != "[1 2]" || q.Size() != 2 {
					t.Errorf("the refreshed proxy delivered %s with Size %d, want [1 2] and 2", got, q.Size())
				}

				unstarted, ran, _ := r.count()
				unstarted.Stop()
				if v, ok := unstarted.Next(); ok || ran() != 0 {
					t.Errorf("Stop before start: Next = %v, %v with %d producers started, want a failure and none", v, ok, ran())
				}

				parked := r.stall()
				if got := ints(parked, 1); got != "[1]" {
					t.Errorf("the stalling stream delivered %s, want [1]", got)
				}
				returned := make(chan bool, 1)
				go func() {
					_, ok := parked.Next()
					returned <- ok
				}()
				parked.Stop()
				select {
				case ok := <-returned:
					if ok {
						t.Error("the Next parked across Stop delivered a value")
					}
				case <-time.After(5 * time.Second):
					t.Error("the Next parked across Stop did not return within 5s")
				}

				future, _, _ := r.count()
				if v, ok := first(future); !ok || value.Image(v) != "1" {
					t.Errorf("First = %v, %v, want 1", v, ok)
				}
				if v, ok := future.Next(); ok {
					t.Errorf("Next after First = %s, want a failure", value.Image(v))
				}

				// A producer's error is its incarnation's: a Restart that
				// runs cleanly reports none.
				raiser := r.raiseOnce()
				defer raiser.Stop()
				if got := ints(raiser, 6); got != "[1]" || raiser.Err() == nil {
					t.Errorf("the raising evaluation delivered %s with Err %v, want [1] and an error", got, raiser.Err())
				}
				raiser.Restart()
				if got := ints(raiser, 6); got != "[1 2 3 4 5]" || raiser.Err() != nil {
					t.Errorf("after Restart %s with Err %v, want [1 2 3 4 5] and none", got, raiser.Err())
				}
			})
		})
	}
}
