//go:build !race

// Allocation guards for the steady-state frame path. The zero-alloc
// claim the mux benchmarks rest on is pinned here as a test, so a
// regression (a forgotten pooled buffer, a frame reader that stops
// recycling) fails fast instead of showing up as a benchmark drift.
// Excluded under -race: the race runtime inserts allocations of its own.
package remote

import (
	"bytes"
	"net"
	"testing"

	"junicon/internal/value"
	"junicon/internal/wire"
)

// loopReader replays one byte sequence forever without allocating.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// encodedValuesFrame builds one VALUES frame carrying n integers, as the
// server's producer encodes them into its run and its flush puts the run
// on a session.
func encodedValuesFrame(t testing.TB, n int) []byte {
	t.Helper()
	var run wire.Run
	for i := 0; i < n; i++ {
		if err := run.Append(value.NewInt(int64(i))); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	return appendMuxFrame(nil, frameValues, 7, run.Payload())
}

// TestFrameReaderZeroAllocSteadyState: reading VALUES frames through a
// frameReader allocates nothing — payloads are views into its pooled fill
// buffer.
func TestFrameReaderZeroAllocSteadyState(t *testing.T) {
	fr := newFrameReader(&loopReader{data: encodedValuesFrame(t, 64)}, 0)
	defer fr.release()
	read := func() {
		typ, _, _, err := fr.readMux()
		if err != nil || typ != frameValues {
			t.Fatalf("read: typ=%d err=%v", typ, err)
		}
	}
	read()
	if avg := testing.AllocsPerRun(200, read); avg > 0 {
		t.Errorf("frameReader.readMux allocates %.2f/op steady-state, want 0", avg)
	}
}

// TestUnmarshalBatchIntoReusesScratch: the session read loop decodes
// every VALUES frame into one recycled value slice, and integers in the
// intern table's range decode to pre-boxed values, so a frame of them
// allocates nothing — no slice, no intermediate [][]byte, no copy, no box.
func TestUnmarshalBatchIntoReusesScratch(t *testing.T) {
	const n = 64
	fr := newFrameReader(&loopReader{data: encodedValuesFrame(t, n)}, 0)
	defer fr.release()
	var vals []value.V
	step := func() {
		_, _, payload, err := fr.readMux()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		vals, err = wire.UnmarshalBatchInto(vals[:0], payload, wire.DefaultLimits)
		if err != nil || len(vals) != n {
			t.Fatalf("decode: n=%d err=%v", len(vals), err)
		}
	}
	step() // warmup: grow scratch
	if avg := testing.AllocsPerRun(200, step); avg > 0 {
		t.Errorf("VALUES decode of %d small integers allocates %.1f/op, want 0", n, avg)
	}
}

// discardConn is a connection whose writes go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// TestEnqueueZeroAllocSteadyState: the shared session writer stages frames
// in buffers it swaps and reuses — once they have grown, enqueueing and
// flushing a frame allocates nothing.
func TestEnqueueZeroAllocSteadyState(t *testing.T) {
	m := newMuxIO(discardConn{}, nil)
	defer m.fail(errConnLost)
	payload := bytes.Repeat([]byte{0xcd}, 1024)
	step := func() {
		if err := m.enqueue(frameValues, 7, payload); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	for i := 0; i < 100; i++ {
		step() // warmup: grow both swap buffers
	}
	if avg := testing.AllocsPerRun(200, step); avg > 0 {
		t.Errorf("enqueue allocates %.2f/op steady-state, want 0", avg)
	}
}

// TestCreditGrantZeroAlloc: a consumer's CREDIT grant — the debt taken
// under the pipe's lock, the payload encoded on the stack, the frame
// enqueued — allocates nothing.
func TestCreditGrantZeroAlloc(t *testing.T) {
	m := newMuxIO(discardConn{}, nil)
	defer m.fail(errConnLost)
	rx := &muxRx{p: &RemotePipe{}, sess: &Session{io: m}, sid: 7}
	step := func() {
		rx.debt = 300 // a two-byte grant
		rx.flushCredits(false)
	}
	for i := 0; i < 100; i++ {
		step() // warmup: grow both swap buffers
	}
	if avg := testing.AllocsPerRun(200, step); avg > 0 {
		t.Errorf("a CREDIT grant allocates %.2f/op steady-state, want 0", avg)
	}
}
