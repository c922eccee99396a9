// Package semtest is a differential semantics harness for the concurrent
// generator transports: it evaluates one generator expression three ways —
// sequentially on the kernel, through a batched pipe, and through a remote
// pipe over loopback — and reduces each run to the same observable trace
// (the sequence of value images plus whether the sequence ended in failure
// propagation). Batching and distribution are performance features; this
// package is the executable statement that they are *only* performance
// features. Every transport knob (buffer size, batch size, queue
// implementation, injected schedule) must leave the trace identical to the
// sequential reference, or the optimization has changed the language. The
// evaluator is one more knob: each local lane takes it as a parameter, so
// one lane per transport covers the tree walk, WithOptimize and the VM.
package semtest

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/pipe"
	"junicon/internal/pool"
	"junicon/internal/queue"
	"junicon/internal/remote"
	"junicon/internal/value"
)

// DefaultMax bounds how many results a run drains; the corpus is finite
// well under this, so hitting it means a transport invented values.
const DefaultMax = 4000

// Case is one generator expression under differential test.
type Case struct {
	Name    string
	Program string // declarations loaded before evaluation (may be empty)
	Expr    string // the generator expression to evaluate
	Max     int    // drain bound; 0 selects DefaultMax
}

func (c Case) max() int {
	if c.Max <= 0 {
		return DefaultMax
	}
	return c.Max
}

// Result is the observable trace of one run: the images of the values
// produced, in order, and whether the sequence terminated by failure
// propagation (an error) rather than ordinary exhaustion.
type Result struct {
	Images []string
	Failed bool
	Err    string // the error a plain drain raised (drainGen); Equal ignores it
}

// Equal reports trace equivalence.
func (r Result) Equal(o Result) bool {
	if r.Failed != o.Failed || len(r.Images) != len(o.Images) {
		return false
	}
	for i := range r.Images {
		if r.Images[i] != o.Images[i] {
			return false
		}
	}
	return true
}

func (r Result) String() string {
	return fmt.Sprintf("%v failed=%v", r.Images, r.Failed)
}

// GridCell is one transport configuration of the buffer × batch grid.
type GridCell struct{ Buffer, Batch int }

// Grid is the standard buffer × batch-size sweep: buffers from
// future-sized to generous, batch sizes straddling every run boundary. On a
// local pipe batch caps the consumer's run (1 = per-value takes, batch >
// buffer = the buffer is the cap, batch ≫ stream = EOS mid-run); on a
// remote one it sizes the server's flush.
func Grid() []GridCell {
	var cells []GridCell
	for _, buffer := range []int{1, 2, 64} {
		for _, batch := range []int{1, 2, 8, 64} {
			cells = append(cells, GridCell{buffer, batch})
		}
	}
	return cells
}

// newInterp builds a fresh interpreter with the case's program loaded and
// writes discarded (corpus programs may call write; its return value, not
// the output stream, is the observable here).
func newInterp(c Case, opts ...interp.Option) (*interp.Interp, error) {
	in := interp.New(append([]interp.Option{interp.WithOutput(io.Discard)}, opts...)...)
	if c.Program != "" {
		if err := in.LoadProgram(c.Program); err != nil {
			return nil, fmt.Errorf("load %s: %w", c.Name, err)
		}
	}
	return in, nil
}

// evalGen evaluates the case on the evaluator eval selects and returns its
// generator. Every local lane takes eval last: no option is the tree walk
// (the reference), interp.WithOptimize() provisions |> sites from facts,
// and interp.WithVM() runs every unit as compiled frames. An evaluator's
// contract is the transports': pure performance, identical trace.
func evalGen(c Case, eval []interp.Option) (core.Gen, error) {
	in, err := newInterp(c, eval...)
	if err != nil {
		return nil, err
	}
	g, err := in.EvalGen(c.Expr)
	if err != nil {
		return nil, fmt.Errorf("eval %s: %w", c.Name, err)
	}
	return g, nil
}

// drainGen drains a plain generator under core.Protect, folding a raised
// runtime error into Failed.
func drainGen(g core.Gen, max int) Result {
	var r Result
	err := core.Protect(func() {
		for i := 0; i < max; i++ {
			v, ok := g.Next()
			if !ok {
				return
			}
			r.Images = append(r.Images, value.Image(value.Deref(v)))
		}
	})
	if r.Failed = err != nil; r.Failed {
		r.Err = err.Error()
	}
	return r
}

// drainPipe drains a pipe-like generator (local or remote): producer
// errors surface as a failed Next plus a non-nil Err, which the trace
// records as failure propagation. A non-nil before runs ahead of the Next
// that would deliver value number i (0-based): the hook the muxed lane
// paces its consumer with and the chaos lanes disrupt the transport from.
func drainPipe(g interface {
	Next() (value.V, bool)
	Err() error
	Stop()
}, max int, before func(i int)) Result {
	defer g.Stop()
	var r Result
	for i := 0; i < max; i++ {
		if before != nil {
			before(i)
		}
		v, ok := g.Next()
		if !ok {
			break
		}
		r.Images = append(r.Images, value.Image(value.Deref(v)))
	}
	r.Failed = g.Err() != nil
	return r
}

// Sequential evaluates the case with no concurrency at all. On the tree
// walk (no eval) it is the reference trace every lane is judged against.
func Sequential(c Case, eval ...interp.Option) (Result, error) {
	g, err := evalGen(c, eval)
	if err != nil {
		return Result{}, err
	}
	return drainGen(g, c.max()), nil
}

// Batched evaluates the case through a pipe with the given buffer and run
// cap.
func Batched(c Case, buffer, batch int, eval ...interp.Option) (Result, error) {
	g, err := evalGen(c, eval)
	if err != nil {
		return Result{}, err
	}
	return drainPipe(pipe.FromGenBatched(g, buffer, batch), c.max(), nil), nil
}

// Pooled evaluates the case through a batched pipe whose producer runs on
// a reused worker from pl instead of a goroutine of its own — the pooled
// execution mode must be trace-identical to the per-goroutine mode.
func Pooled(c Case, pl *pool.Pool, buffer, batch int, eval ...interp.Option) (Result, error) {
	g, err := evalGen(c, eval)
	if err != nil {
		return Result{}, err
	}
	return drainPipe(pipe.FromGenBatched(g, buffer, batch).OnPool(pl), c.max(), nil), nil
}

// BatchedWithQueue evaluates the case through a run-capped pipe over a
// caller-supplied transport queue — the stress mode's entry point, letting
// a schedule-injecting wrapper sit at the queue boundary.
func BatchedWithQueue(c Case, mk func() queue.Queue[value.V], batch int, eval ...interp.Option) (Result, error) {
	g, err := evalGen(c, eval)
	if err != nil {
		return Result{}, err
	}
	return drainPipe(pipe.NewBatchedWithQueue(core.NewFirstClass(g), mk, batch), c.max(), nil), nil
}

// Remote evaluates the case as a source stream against a loopback server
// at addr (which must have AllowSource set), using cfg's buffer/batch.
func Remote(c Case, addr string, cfg remote.Config) (Result, error) {
	p := remote.OpenSource(addr, c.Program, c.Expr, nil, cfg)
	r := drainPipe(p, c.max(), nil)
	if err := refused(p.Err(), r); err != nil {
		return Result{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	return r, nil
}

// refused turns a refused OPEN into a harness error, not a trace: the
// server classes every OPEN it would not run (a parse error, a vet
// finding) as remote.ClassRefused, and the sequential reference could not
// have run such a case either, so there is nothing to compare.
func refused(err error, r Result) error {
	var re *remote.RemoteError
	if errors.As(err, &re) && len(r.Images) == 0 && re.Class == remote.ClassRefused {
		return fmt.Errorf("remote refused: %v", re)
	}
	return nil
}

// SchedQueue wraps a transport queue and injects pauses ahead of the two
// operations a pipe moves values with — the producer's Put and the
// consumer's TakeBatch — from a deterministically seeded schedule. Over a
// small inner queue this forces the interleavings the hop must survive:
// Put stalling for space behind a paused consumer, runs of every length
// from one to the cap, EOS landing while a run is in the consumer's hands,
// and Stop arriving while a Put is parked. The schedule (which operations
// pause, and for how long) is a pure function of the seed, so a failing
// interleaving is replayable. Everything else is the inner queue's own.
type SchedQueue struct {
	queue.Queue[value.V]
	mu  sync.Mutex
	rng *rand.Rand
}

// NewSchedQueue wraps q with the pause schedule derived from seed.
func NewSchedQueue(q queue.Queue[value.V], seed int64) *SchedQueue {
	return &SchedQueue{Queue: q, rng: rand.New(rand.NewSource(seed))}
}

// pause draws the next schedule decision: nothing, a yield, or a short
// sleep (long enough to let the other side run, short enough to keep the
// suite fast).
func (s *SchedQueue) pause() {
	s.mu.Lock()
	n := s.rng.Intn(8)
	s.mu.Unlock()
	switch {
	case n < 4: // no pause
	case n < 7:
		runtime.Gosched()
	default:
		time.Sleep(50 * time.Microsecond)
	}
}

func (s *SchedQueue) Put(v value.V) error {
	s.pause()
	return s.Queue.Put(v)
}

func (s *SchedQueue) TakeBatch(dst []value.V) (int, error) {
	s.pause()
	return s.Queue.TakeBatch(dst)
}
