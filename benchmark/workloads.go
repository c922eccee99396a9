package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"junicon/internal/wordcount"
)

// A workload is one lane of the system driven on one set of inputs. Each
// has a headline bar, what its user pays, and a reference bar, the same
// result obtained without the layer under test; the end-to-end metrics
// every workload reports (metrics.go) are taken from those two. The
// metrics ISSUE 11 names per workload are reported beside them.

type workload struct {
	name, why string
	lane      string // which of the lanes below runs
	daemons   int    // junicond processes it needs

	lines   int              // fig6, dist: corpus size
	weight  wordcount.Weight // fig6
	scripts string           // scripts: program set
	values  int              // stream: values per consumer per throughput round
	rtts    int              // stream: values per round-trip stream
	streams int              // storm: streams per round
	lo, hi  int              // storm: stream length is drawn from lo..hi
}

const (
	stormSlots  = 32 // closed-loop slots of a storm
	stormBuffer = 64
	distChunk   = 250
	wordsOnLine = 10
)

func workloads() []workload {
	return []workload{
		{name: "fig6-light", lane: "fig6", lines: 4000, weight: wordcount.Light,
			why: "Figure 6 with the lightweight hash on 4000 lines: kernel, pipe, queue, pool and mapreduce plumbing is most of every Junicon bar, so plumbing optimisations must show here"},
		{name: "fig6-heavy", lane: "fig6", lines: 500, weight: wordcount.Heavy,
			why: "Figure 6 with the ~80x heavier hash on 500 lines: task work is over 90% of every bar, so plumbing changes predict no movement; the bypass for fig6-light"},
		{name: "scripts-vm", lane: "scripts", scripts: "vm",
			why: "programs every unit of which compiles, under tree walk, optimised tree walk and VM: evaluator-bound, no transport"},
		{name: "scripts-fallback", lane: "scripts", scripts: "fallback",
			why: "programs with a unit the compiler rejects (co-expressions, scanning, reversible assignment, static/initial): VM falls back whole-unit, so the VM's gain over the tree walk vanishes here"},
		{name: "remote-stream", lane: "stream", daemons: 1, values: 100_000, rtts: 2_000,
			why: "two consumers draining 100000-value streams plus a Buffer=1 per-value stream: codec, frame write, flush and credit loop do the work, stream set-up none"},
		{name: "remote-storm", lane: "storm", daemons: 1, streams: 2_000, lo: 20, hi: 80,
			why: "32 closed-loop slots opening, draining and stopping 20-80 value streams: OPEN, sid allocation, demux and teardown dominate and the codec barely matters; the inverse of remote-stream"},
		{name: "dist-wordcount", lane: "dist", daemons: 2, lines: 20_000,
			why: "word count of 20000 lines over two junicond processes: a large OPEN argument list out, a few partial sums back, worker-side mapreduce and pool under it"},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stormStream is one seeded stream of a storm round.
type stormStream struct {
	length int
	batch  int // remote.Config.Batch: 0 default, 8, or -1 per value
}

// env is what set-up leaves behind: running daemons and generated inputs.
type env struct {
	w       workload
	daemons []*daemon
	addrs   []string
	dir     string // holds the junicond binary

	lines    []string // fig6, dist: the corpus
	ref      float64  // its sequential total
	programs []program
	storm    []stormStream
}

// setup is everything between process start and the first measured
// iteration: it generates the workload's inputs from the seed, builds
// junicond and starts as many daemons as the workload needs (debug turns
// their -debug-addr on), and warms the lane up.
func setup(w workload, seed int64, src, out string, debug bool) (*env, error) {
	e := &env{w: w}
	var err error
	if w.lines > 0 {
		e.lines = wordcount.GenerateLines(w.lines, wordsOnLine, seed)
		e.ref = wordcount.SequentialTotal(e.lines, w.weight)
	}
	if w.scripts != "" {
		// The probes read the set here; the lane's children load it
		// themselves.
		if e.programs, err = loadPrograms(w.scripts); err != nil {
			e.close()
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	e.storm = make([]stormStream, w.streams)
	for i := range e.storm {
		e.storm[i] = stormStream{
			length: w.lo + rng.Intn(w.hi-w.lo+1),
			batch:  []int{0, 8, -1}[rng.Intn(3)],
		}
	}
	if w.daemons > 0 {
		if e.dir, err = tempDir(out); err != nil {
			return nil, err
		}
		bin, err := buildDaemon(src, e.dir)
		if err != nil {
			e.close()
			return nil, err
		}
		for i := 0; i < w.daemons; i++ {
			d, err := startDaemon(bin, debug)
			if err != nil {
				e.close()
				return nil, err
			}
			e.daemons = append(e.daemons, d)
			e.addrs = append(e.addrs, d.addr)
		}
	}
	if r := e.warm(); r.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d of %d operations failed: %v", r.failed, r.attempted, r.notes)
	}
	return e, nil
}

// warm runs the lane on its input, unmeasured, for a moment: the heavy
// workloads get one round, the others as many as fit.
func (e *env) warm() laneResult {
	return e.run(budget{d: 300 * time.Millisecond, rounds: 1}, nil)
}

// run runs the workload's lane.
func (e *env) run(b budget, tr *recorder) laneResult {
	return lanes[e.w.lane](e, b, tr)
}

func (e *env) close() {
	for _, d := range e.daemons {
		d.stop()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// budget bounds a lane's measuring loop: at least rounds rounds, and more
// until d has passed.
type budget struct {
	d      time.Duration
	rounds int
}

// loop calls round until the budget is spent.
func (b budget) loop(round func(i int)) {
	deadline := time.Now().Add(b.d)
	for i := 0; i < b.rounds || time.Now().Before(deadline); i++ {
		round(i)
	}
}

// laneResult is what one lane measured.
type laneResult struct {
	metrics   map[string]Stat
	attempted int
	failed    int
	notes     []string // the first few failures, for the report
}

func (r *laneResult) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// lanes are the five ways the system is driven.
var lanes = map[string]func(e *env, b budget, tr *recorder) laneResult{
	"fig6":    (*env).runFig6,
	"scripts": (*env).runScripts,
	"stream":  (*env).runStream,
	"storm":   (*env).runStorm,
	"dist":    (*env).runDist,
}
