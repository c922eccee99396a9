package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/remote"
	"junicon/internal/value"
)

// streamTimes are the parts of one stream's life, as its consumer saw it.
type streamTimes struct {
	first time.Duration // Open → first value
	total time.Duration // Open → Stop returned
	stop  time.Duration // Stop after the end of the stream
	waits []float64     // each later Next, in µs; nil unless asked for
}

// drainRange opens range(1, n) on addr, checks that exactly 1..n arrive
// in order and that the stream ends without error, and stops it.
func drainRange(d *remote.Dialer, addr string, n int, cfg remote.Config, waits bool, tr *recorder) (streamTimes, error) {
	var st streamTimes
	run := tr.newRun()
	root := tr.begin("remote.stream", -1, run)
	defer tr.end(root)
	if waits {
		st.waits = make([]float64, 0, n)
	}
	args := []value.V{value.NewInt(1), value.NewInt(int64(n))}
	t0 := time.Now()
	sp := tr.begin("remote.open_first_value", root, run)
	p := d.Open(addr, "range", args, cfg)
	var err error
	expect := int64(1)
	for {
		s := time.Now()
		v, ok := p.Next()
		if !ok {
			break
		}
		switch {
		case expect == 1:
			st.first = time.Since(t0)
			tr.end(sp)
			sp = tr.begin("remote.drain", root, run)
		case waits:
			st.waits = append(st.waits, float64(time.Since(s).Nanoseconds())/1e3)
		}
		got, isInt := value.ToInteger(value.Deref(v))
		if n, _ := got.Int64(); !isInt || n != expect {
			err = fmt.Errorf("value %s, want %d", value.Image(v), expect)
			break
		}
		expect++
	}
	tr.end(sp)
	if err == nil {
		if err = p.Err(); err == nil && expect != int64(n)+1 {
			err = fmt.Errorf("%d values delivered, want %d", expect-1, n)
		}
	}
	sp = tr.begin("remote.stop", root, run)
	s := time.Now()
	p.Stop()
	st.stop = time.Since(s)
	tr.end(sp)
	st.total = time.Since(t0)
	return st, err
}

// streamA runs phase A once: two consumers each drain a long stream
// through one Dialer (Buffer 64, default batch). It returns values
// delivered per second.
func streamA(d *remote.Dialer, addr string, values int, r *laneResult, tr *recorder) (float64, bool) {
	const consumers = 2
	errs := make([]error, consumers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[c] = drainRange(d, addr, values, remote.Config{Buffer: 64}, false, tr)
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	ok := true
	for _, err := range errs {
		r.attempted++
		if err != nil {
			ok = false
			r.fail("stream A: %v", err)
		}
	}
	return float64(consumers*values) / wall.Seconds(), ok
}

// streamB runs phase B once: one consumer on a remote M-var (Buffer 1, no
// batching), so every Next is a full credit→value round trip. It returns
// each Next's wait in µs.
func streamB(d *remote.Dialer, addr string, values int, r *laneResult, tr *recorder) []float64 {
	st, err := drainRange(d, addr, values, remote.Config{Buffer: 1, Batch: -1}, true, tr)
	r.attempted++
	if err != nil {
		r.fail("stream B: %v", err)
		return nil
	}
	return st.waits
}

// inProcess starts a server in this process that serves junicond's
// "range": the protocol without the process boundary.
func inProcess() (*remote.Server, string, error) {
	srv := remote.NewServer()
	srv.Register("range", rangeGenerator)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, bound.String(), nil
}

// runStream is the steady-state wire path. Each round is one throughput
// phase (A) and one round-trip stream (B) against the daemon, then B
// again against a server in this process, so drift reaches all three
// alike. The headline operation is one Next of phase B, a full
// credit→value round trip, the reference the same round trip without the
// process boundary, and the rate is phase A's (values_per_s): the same
// layer priced for latency and for throughput, so coalescing that buys one
// at the other's expense shows. A round trip takes about 20 µs when both
// processes are awake and about 70 when one must be woken, and a run is a
// mixture of the two, so the median over single round trips (the issue's
// rtt_us_p50) jumps between them with the mixture's weights; the headline
// is the median over rounds of a round's mean round trip, which moves with
// the weights only as much as they do.
func (e *env) runStream(b budget, tr *recorder) laneResult {
	r := laneResult{metrics: map[string]Stat{}}
	srv, local, err := inProcess()
	if err != nil {
		r.attempted++
		r.fail("in-process server: %v", err)
		r.endToEnd(Stat{}, Stat{}, 0)
		return r
	}
	defer srv.Close()
	d := &remote.Dialer{}
	defer d.Close()
	var rates, far, near, waits []float64
	b.loop(func(int) {
		if rate, ok := streamA(d, e.addrs[0], e.w.values, &r, tr); ok {
			rates = append(rates, rate)
		}
		if us := streamB(d, e.addrs[0], e.w.rtts, &r, tr); us != nil {
			far, waits = append(far, mean(us)/1e3), append(waits, us...)
		}
		if us := streamB(d, local, e.w.rtts, &r, tr); us != nil {
			near = append(near, mean(us)/1e3)
		}
	})
	r.metrics["rtt_us_p50"] = summarize(waits, "us")
	r.endToEnd(summarize(far, "ms"), summarize(near, "ms"), median(rates))
	return r
}

// stormRound runs the round's streams through slots closed-loop slots:
// each opens, drains and stops one stream after another until the streams
// are used up. It returns each stream's life in ms and the round's wall
// time, or ok false if a stream failed.
func (e *env) stormRound(d *remote.Dialer, streams []stormStream, slots int, r *laneResult, tr *recorder) (lives []float64, wall time.Duration, ok bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok = true
	t0 := time.Now()
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(streams) {
					return
				}
				ss := streams[i]
				st, err := drainRange(d, e.addrs[0], ss.length,
					remote.Config{Buffer: stormBuffer, Batch: ss.batch}, false, tr)
				mu.Lock()
				r.attempted++
				if err != nil {
					ok = false
					r.fail("storm stream %d: %v", i, err)
				} else {
					lives = append(lives, st.total.Seconds()*1e3)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lives, time.Since(t0), ok
}

// runStorm is the lifecycle-bound lane. Each round is one storm with all
// slots busy (the headline: an operation is one stream, open to stopped;
// the rate is the issue's streams_per_s) and a quarter as many streams
// through one slot (the reference: what a stream costs with nothing else
// in flight, so overhead_x is what waiting behind the other slots adds).
func (e *env) runStorm(b budget, tr *recorder) laneResult {
	r := laneResult{metrics: map[string]Stat{}}
	d := &remote.Dialer{}
	defer d.Close()
	var rates, lives, alone []float64
	few := e.storm[:max(len(e.storm)/4, 1)]
	b.loop(func(int) {
		busy, wall, ok := e.stormRound(d, e.storm, stormSlots, &r, tr)
		idle, _, _ := e.stormRound(d, few, 1, &r, tr)
		lives, alone = append(lives, busy...), append(alone, idle...)
		if ok {
			rates = append(rates, float64(len(e.storm))/wall.Seconds())
		}
	})
	r.metrics["stream_ms_p99"] = percentile(lives, 0.99, "ms")
	r.endToEnd(summarize(lives, "ms"), summarize(alone, "ms"), median(rates))
	return r
}
