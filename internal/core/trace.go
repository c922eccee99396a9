package core

import (
	"fmt"
	"io"
	"strings"

	"junicon/internal/telemetry"
	"junicon/internal/value"
)

// Kernel protocol counters. The drive loops (Drain, Each, Count, First)
// and FirstClass.Step — the consumer- and producer-side chokepoints every
// iteration funnels through — tick these when telemetry is enabled; the
// disabled path is one atomic load and a branch per operation.
var (
	cResumes  = telemetry.NewCounter("kernel.resumes")
	cYields   = telemetry.NewCounter("kernel.yields")
	cFails    = telemetry.NewCounter("kernel.fails")
	cRestarts = telemetry.NewCounter("kernel.restarts")
)

// countNext records one protocol resume and its outcome.
func countNext(ok bool) {
	cResumes.Inc()
	if ok {
		cYields.Inc()
	} else {
		cFails.Inc()
	}
}

// Tracer accumulates procedure-level trace output in Icon's &trace style:
//
//	| isprime(4)
//	| isprime failed
//	| isprime(5)
//	| isprime suspended 5
//
// with nesting depth shown by bar prefixes.
type Tracer struct {
	W     io.Writer
	depth int
}

func (t *Tracer) prefix() string { return strings.Repeat("| ", t.depth+1) }

// Call reports a procedure invocation and increases depth.
func (t *Tracer) Call(name string, args []V) {
	imgs := make([]string, len(args))
	for i, a := range args {
		imgs[i] = value.Image(value.Deref(a))
	}
	fmt.Fprintf(t.W, "%s%s(%s)\n", t.prefix(), name, strings.Join(imgs, ", "))
	t.depth++
}

// Suspend reports a result being produced.
func (t *Tracer) Suspend(name string, v V) {
	fmt.Fprintf(t.W, "%s%s suspended %s\n", t.prefix(), name, value.Image(value.Deref(v)))
}

// Return reports a procedure returning (its final result).
func (t *Tracer) Return(name string, v V) {
	t.depth--
	if t.depth < 0 {
		t.depth = 0
	}
	fmt.Fprintf(t.W, "%s%s returned %s\n", t.prefix(), name, value.Image(value.Deref(v)))
}

// Fail reports a procedure failing out.
func (t *Tracer) Fail(name string) {
	t.depth--
	if t.depth < 0 {
		t.depth = 0
	}
	fmt.Fprintf(t.W, "%s%s failed\n", t.prefix(), name)
}
