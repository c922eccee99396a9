package remote

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/queue"
	"junicon/internal/telemetry"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// Client-side stream telemetry. The stream ID allocated at open time is
// sent in the OPEN frame, so the server's producer events carry the same
// ID as this client's consumer events — the hook that lets a distributed
// trace be stitched across the process boundary.
var (
	cClientStreams    = telemetry.NewCounter("remote.client.streams_opened")
	cClientValues     = telemetry.NewCounter("remote.client.values")
	cCreditsSent      = telemetry.NewCounter("remote.client.credits_sent")
	cClientRecoveries = telemetry.NewCounter("remote.client.recoveries")
	cClientMigrations = telemetry.NewCounter("remote.client.migrations")
)

// Defaults for Config zero values.
const (
	// DefaultBuffer matches pipe.DefaultBuffer: the credit window a remote
	// pipe grants its producer when none is configured.
	DefaultBuffer = 1024
	// DefaultDialTimeout bounds connection establishment.
	DefaultDialTimeout = 5 * time.Second
	// DefaultHeartbeat is the PING interval keeping idle streams alive and
	// detecting dead peers.
	DefaultHeartbeat = 2 * time.Second
	// DefaultBatch is the VALUES run cap asked for when Config.Batch is
	// zero: the server may pack up to this many values into one frame.
	DefaultBatch = 64
	// DefaultRecoverWait bounds how long a recovering pipe keeps redialing
	// a lost server before giving up and surfacing the original error.
	DefaultRecoverWait = 10 * time.Second
)

// ErrDeadline reports that a Next call waited longer than Config.Deadline;
// the stream is torn down so the pipe fails instead of hanging.
var ErrDeadline = errors.New("remote: deadline exceeded waiting for next value")

// errConnLost is the sentinel under every connection-loss failure — the
// one class of stream death a Config.Recover pipe redials through.
var errConnLost = errors.New("remote: connection lost")

// RemoteError is a server-reported stream error: the serving generator
// raised a runtime error or panicked (the remote analogue of pipe.Pipe's
// producer error), or the server rejected the OPEN (unknown generator,
// vet errors, connection limit). Class says which; Msg is for people.
type RemoteError struct {
	Class ErrClass
	Msg   string
}

func (e *RemoteError) Error() string { return "remote: server error: " + e.Msg }

// Config tunes a RemotePipe. The zero value is usable.
type Config struct {
	// Buffer is the credit window — the remote equivalent of the pipe's
	// bounded queue size (§3B throttling). <= 0 selects DefaultBuffer;
	// 1 yields remote future/M-var behaviour.
	Buffer int
	// Deadline bounds each Next call; 0 means no per-call deadline. On
	// expiry the stream is torn down and Err reports ErrDeadline.
	Deadline time.Duration
	// Batch caps the VALUES run asked for at OPEN: the server may deliver
	// up to Batch values per frame, and the client coalesces its per-value
	// credit grants into runs of the same size. 0 selects DefaultBatch;
	// negative means runs of one — a frame and a grant per value. Credit
	// accounting is per value either way, so the Buffer bound — §3B's
	// throttle — is unchanged by batching.
	Batch int
	// CheckpointEvery asks the server to checkpoint the stream after every
	// N delivered values (a SNAPSHOT frame piggybacked on the credit
	// cadence, so the Buffer bound also bounds checkpoint lag); 0 disables
	// interval checkpointing. Servers that refuse (non-resumable
	// generators) say so once; the stream flows on regardless.
	CheckpointEvery int
	// Recover redials a lost connection and resumes the stream in place:
	// from the last received checkpoint snapshot when one exists, else by
	// deterministic replay (the server re-runs the generator and skips the
	// values this pipe already delivered). The consumer sees one unbroken
	// sequence — no values lost or duplicated.
	Recover bool
	// RecoverWait bounds total redial time per recovery; <= 0 selects
	// DefaultRecoverWait.
	RecoverWait time.Duration
}

// RemotePipe is a generator proxy whose producer runs in another process:
// the remote counterpart of pipe.Pipe, with the same Next/Restart/Stop/
// Refresh/Err surface and the same core.Stepper contract, so it composes
// under product, alternation, limit, promotion and mapreduce unchanged.
//
// The stream opens lazily on the first Next (as |>e spawns its thread on
// first use); Restart cancels the stream and re-opens a fresh one, which
// re-evaluates the remote generator from the start — the network analogue
// of ^ over a refreshed co-expression.
type RemotePipe struct {
	mu   sync.Mutex
	addr string
	cfg  Config
	spec openReq // immutable template (credit filled per open)

	// argErr is set when the argument vector would not encode (a cyclic
	// list, a depth or size limit): the first Next fails with it and
	// nothing is dialed.
	argErr error

	// dialer is where the pipe's sessions come from: the pooling Dialer it
	// was opened through, or — for the package-level constructors — a
	// private one whose sessions carry this one stream and close with it.
	// sess and sid are the current stream incarnation's place on the wire;
	// sess is nil when none is live. out is its queue: nil while the pipe
	// is unopened, closed and empty once it has halted.
	dialer  *Dialer
	sess    *Session
	sid     uint32
	out     queue.Queue[value.V]
	err     error
	results int
	stream  uint64 // telemetry stream ID, propagated in OPEN; 0 = unobserved
	// batch is the run cap sent in the current stream's OPEN; debt counts
	// values consumed but not yet credited back — coalesced into one CREDIT
	// frame per run.
	batch int
	debt  uint64
	// Durability state. epoch counts stream incarnations — a credit grant
	// captured under one epoch is dropped rather than written to a
	// different incarnation's stream (the redial double-grant race).
	// lastSnap/lastSnapAt hold the most recent checkpoint blob and the
	// delivered count it corresponds to; snapWait is signaled when a
	// SNAPSHOT answer (blob or refusal) lands; replay buffers values
	// drained off a dying stream during migration, delivered before the
	// target stream's.
	epoch      uint64
	lastSnap   []byte
	lastSnapAt uint64
	snapReason string
	snapWait   chan struct{}
	replay     []value.V
	// ih is the live-introspection handle for the current stream; nil when
	// inspection was off at open time. Each (re)open registers afresh.
	ih *inspect.Handle
	// done is closed when the current incarnation's stream has left its
	// session's demux table: nothing more will arrive for it.
	done chan struct{}
}

var (
	_ value.Gen    = (*RemotePipe)(nil)
	_ core.Stepper = (*RemotePipe)(nil)
	_ value.Sized  = (*RemotePipe)(nil)
)

// Open returns a remote pipe over the generator registered under name on
// the server at addr, applied to args. No connection is made until the
// first Next; the pipe then owns a private session carrying its one
// stream, dialed and kept alive at the Dialer defaults and closed when the
// stream ends. Dialer.Open shares connections instead.
func Open(addr, name string, args []value.V, cfg Config) *RemotePipe {
	return privateDialer().Open(addr, name, args, cfg)
}

// privateDialer is the Dialer a package-level Open or OpenSource pipe
// owns: one stream per connection.
func privateDialer() *Dialer { return &Dialer{StreamsPerConn: 1, private: true} }

// OpenSource returns a remote pipe over a Junicon source stream: program
// holds declarations (may be empty), expr is the generator expression the
// server evaluates and serves. The server vets the source with the static
// analyzer before running it and rejects error-level findings. The
// connection is the pipe's own, as for Open.
func OpenSource(addr, program, expr string, args []value.V, cfg Config) *RemotePipe {
	return privateDialer().OpenSource(addr, program, expr, args, cfg)
}

// newPipe encodes the argument vector as one wire list into spec. An
// encoding error (cyclic arguments, a codec limit) stays on the pipe and
// fails its first Next: an empty payload would read as "no arguments".
func newPipe(d *Dialer, addr string, cfg Config, spec openReq, args []value.V) *RemotePipe {
	p := &RemotePipe{addr: addr, cfg: cfg, dialer: d}
	if spec.args, p.argErr = wire.Marshal(value.NewList(args...)); p.argErr != nil {
		p.argErr = fmt.Errorf("remote: encode arguments: %w", p.argErr)
	}
	p.spec = spec
	return p
}

// composeOpen builds the OPEN for a new stream incarnation. Caller holds
// p.mu.
func (p *RemotePipe) composeOpen() openReq {
	open := p.spec
	open.credit = uint64(or(p.cfg.Buffer, DefaultBuffer))
	open.stream = p.stream
	if open.batch = 1; p.cfg.Batch >= 0 {
		open.batch = uint64(or(p.cfg.Batch, DefaultBatch))
	}
	if p.cfg.CheckpointEvery > 0 {
		open.interval = uint64(p.cfg.CheckpointEvery)
	}
	// Continuation: a (re)open with results already delivered is a
	// recovery or migration, not a fresh evaluation. Resume from the last
	// checkpoint when one covers the delivered prefix (skip bridges the
	// values delivered past the snapshot); otherwise ask the server to
	// re-run the generator and skip the whole delivered prefix.
	if p.results > 0 {
		if p.lastSnap != nil && uint64(p.results) >= p.lastSnapAt {
			open.mode = openResume
			open.name, open.program, open.expr = "", "", ""
			open.blob = p.lastSnap
			open.skip = uint64(p.results) - p.lastSnapAt
		} else {
			open.skip = uint64(p.results)
		}
	}
	return open
}

// armLocal initializes the local consumer state for a fresh stream
// incarnation: bounded queue, telemetry, live-introspection handle.
// Caller holds p.mu and has already set batch/epoch.
func (p *RemotePipe) armLocal(observed bool, credit, connID uint64) {
	p.debt = 0
	p.snapWait = nil
	p.out = queue.NewArrayBlocking[value.V](int(credit))
	if observed {
		p.out = queue.Instrument(p.out, p.stream, "remote")
		cClientStreams.Inc()
		telemetry.Emit(p.stream, telemetry.KindStreamOpen, "remote:"+p.addr, int64(credit))
	}
	if inspect.On() {
		if p.stream == 0 {
			p.stream = telemetry.NextStream()
		}
		p.ih = inspect.Register(p.stream, inspect.KindRemoteClient, "remote:"+p.addr)
		p.ih.SetCredit(int64(credit))
		p.ih.SetConn(connID)
		if p.results > 0 {
			p.ih.NoteResumed()
		}
		probe := p.out
		p.ih.SetDepthProbe(func() (int, int) { return probe.Len(), probe.Cap() })
	}
	if p.results > 0 && telemetry.On() {
		cClientRecoveries.Inc()
	}
	p.done = make(chan struct{})
}

// start opens the stream as a logical stream on a session from the pipe's
// dialer — dialing one when the pool has no room, always for a
// package-level pipe. Caller holds p.mu, on a pipe that reset left
// unopened.
func (p *RemotePipe) start() error {
	if p.argErr != nil {
		return p.argErr
	}
	observed := telemetry.Active()
	if observed && p.stream == 0 {
		p.stream = telemetry.NextStream()
	}
	sess, err := p.dialer.session(p.addr)
	if err != nil {
		return err
	}
	open := p.composeOpen()
	p.batch = int(open.batch)
	p.epoch++
	p.armLocal(observed, open.credit, sess.id)
	rx := &muxRx{
		p:      p,
		epoch:  p.epoch,
		stream: p.stream,
		label:  "remote:" + p.addr,
		out:    p.out,
		ih:     p.ih,
		done:   p.done,
		start:  time.Now(),
	}
	if err := sess.openStream(rx, &open); err != nil {
		// The session died between reserve and open. The error already
		// wraps errConnLost, so Recover redials.
		p.reset(true)
		return err
	}
	p.sess, p.sid = sess, rx.sid
	return nil
}

// reset ends the current stream incarnation — cancelling it if it is still
// live, closing its queue and handle — and leaves the pipe unopened and
// without error, so the next Next opens a stream: with keepPosition a
// continuation at (results, last snapshot, replay), without it a fresh
// evaluation. Every way an incarnation ends (Stop, Restart, Refresh,
// recovery, Migrate's cut-over, a failed start) comes through here, so the
// fields that say which stream this is change together. Caller holds p.mu.
func (p *RemotePipe) reset(keepPosition bool) {
	if p.sess != nil {
		p.sess.closeStream(p.sid) // a no-op for a stream that has left its session's table
	}
	if p.out != nil {
		p.out.Close()
	}
	p.ih.Close()
	p.sess, p.out, p.ih, p.err = nil, nil, nil, nil
	if !keepPosition {
		p.results, p.lastSnap, p.lastSnapAt, p.snapReason, p.replay = 0, nil, 0, "", nil
	}
}

// halt leaves a reset pipe on a closed, empty queue with err recorded:
// every Next fails at once and nothing is dialed again until Restart.
// Caller holds p.mu.
func (p *RemotePipe) halt(err error) {
	p.out = queue.NewArrayBlocking[value.V](1)
	p.out.Close()
	p.err = err
}

// noteSnapshot records a SNAPSHOT answer: the latest checkpoint blob (or
// the server's refusal) plus the delivered count it corresponds to, and
// wakes a Migrate waiting on it.
func (p *RemotePipe) noteSnapshot(produced uint64, ok bool, rest []byte) {
	p.mu.Lock()
	if ok {
		p.lastSnap = append([]byte(nil), rest...)
		p.lastSnapAt = produced
		p.snapReason = ""
	} else {
		p.snapReason = string(rest)
	}
	ch := p.snapWait
	p.snapWait = nil
	p.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// testHookFlushPause, when set, runs between a flushCredits debt capture
// and its CREDIT write — the window the double-grant regression test uses
// to interleave a redial deterministically.
var testHookFlushPause func()

// flushCredits grants the producer every credit accumulated since the last
// grant in one CREDIT frame. With demand set a frame is sent even when no
// credits are owed: CREDIT(0) is the pure demand ping a consumer about to
// block sends so the server flushes its partial run.
//
// The grant is pinned to the stream incarnation it was captured under:
// debt is zeroed under p.mu, but the CREDIT write happens later, and a
// redial (crash recovery, migration) can swap the stream in between. A
// fresh stream already opens with a full-buffer grant, so a stale grant
// landing on it would over-credit the producer past the §3B bound — the
// epoch check drops it instead. (Session and stream id are read together
// with the epoch, so a grant that loses the race after the check goes to
// the old incarnation's — a dead connection or a finished stream id, both
// of which discard it.)
func (p *RemotePipe) flushCredits(demand bool) {
	p.mu.Lock()
	debt := p.debt
	p.debt = 0
	stream := p.stream
	epoch := p.epoch
	p.mu.Unlock()
	if debt == 0 && !demand {
		return
	}
	if stream != 0 && telemetry.On() {
		cCreditsSent.Inc()
	}
	if testHookFlushPause != nil {
		testHookFlushPause()
	}
	p.mu.Lock()
	sess, sid, current := p.sess, p.sid, p.epoch == epoch
	p.mu.Unlock()
	if sess != nil && current {
		sess.io.enqueue(frameCredit, sid, creditPayload(debt)) // best effort; loss surfaces in the session loop
	}
}

// Next takes the next remote result, failing when the serving generator
// has failed (EOS), the stream errored, or the per-call deadline expired.
// Each consumed value grants the producer one replacement credit, so at
// most Buffer values are ever in flight — the §3B throttle, across the
// wire.
func (p *RemotePipe) Next() (value.V, bool) {
	p.mu.Lock()
	if len(p.replay) > 0 {
		// Values drained off the previous incarnation during migration:
		// deliver them before touching the new stream. Their credits were
		// spent on the old connection, so no grant is owed here.
		v := p.replay[0]
		p.replay = p.replay[1:]
		p.results++
		p.mu.Unlock()
		return v, true
	}
	p.ensureStarted()
	out, sess, sid, ih := p.out, p.sess, p.sid, p.ih
	// A run cap of one is never partial: only a longer one can leave
	// values waiting on the server for a demand ping.
	demand := p.batch > 1
	p.mu.Unlock()

	if ih != nil {
		inspect.NoteConsumeOnce(ih)
		ih.BlockedTake()
	}

	var timer *time.Timer
	if d := p.cfg.Deadline; d > 0 {
		timer = time.AfterFunc(d, func() {
			p.mu.Lock()
			if p.err == nil {
				p.err = ErrDeadline
			}
			p.mu.Unlock()
			if sess != nil {
				// Tear down this stream only: on a shared session the
				// per-stream close leaves siblings undisturbed.
				sess.closeStream(sid)
			}
			out.Close()
		})
	}
	v, ok, err := out.TryTake()
	if err == nil && !ok {
		if demand {
			// About to block on an empty queue: hand back whatever credits
			// we owe and signal demand, so the server ships its partial run
			// instead of waiting to fill a batch.
			p.flushCredits(true)
		}
		v, err = out.Take()
	}
	if timer != nil {
		timer.Stop()
	}
	if err != nil {
		p.mu.Lock()
		recovering := p.recoverLocked()
		p.mu.Unlock()
		if recovering && p.reconnect() {
			return p.Next()
		}
		return nil, false
	}
	p.mu.Lock()
	p.results++
	p.debt++
	// One CREDIT per run: a batch's worth of grants coalesce into one
	// frame, with the pre-block demand ping above covering the tail. A run
	// cap of one is the per-value ACK clock.
	grant := p.debt >= uint64(p.batch)
	if ih != nil {
		ih.Running()
		ih.Consumed(1)
		// The credit balance is the window minus uncredited consumption:
		// what the server may still send before its next stall.
		ih.SetCredit(int64(uint64(or(p.cfg.Buffer, DefaultBuffer)) - p.debt))
	}
	p.mu.Unlock()
	if grant {
		p.flushCredits(false)
	}
	return v, true
}

// Err reports the error that terminated the stream, if any: a
// *RemoteError for server-side producer errors and rejections, ErrDeadline
// for per-call deadline expiry, or a connection/protocol error. A remote
// generator that simply ran to failure leaves Err nil, exactly as
// pipe.Pipe distinguishes exhaustion from producer error.
func (p *RemotePipe) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// StartEager opens the stream immediately instead of on first Next — used
// by distributed map-reduce, where all remote task pipes must run
// concurrently from the moment they are created (Figure 4). Dial errors
// surface on the first Next via Err.
func (p *RemotePipe) StartEager() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureStarted()
}

// ensureStarted opens the stream unless one is open; a failure halts the
// pipe. Caller holds p.mu.
func (p *RemotePipe) ensureStarted() {
	if p.out == nil {
		if err := p.start(); err != nil {
			p.halt(err)
		}
	}
}

// recoverLocked decides whether a terminated stream is redialed and
// resumed rather than surfaced, and if so resets the pipe for it: only
// under Config.Recover, and only for connection loss or a rejected resume —
// whose snapshot didn't take (stale blob, resume disabled on the target)
// and is dropped, so the retry recovers by deterministic replay instead. A
// server-side producer error, a refused OPEN or a consumer deadline is
// final either way, and so is whatever halted a pipe that has no stream.
// Caller holds p.mu.
func (p *RemotePipe) recoverLocked() bool {
	if !p.cfg.Recover || p.err == nil || p.sess == nil {
		return false
	}
	var re *RemoteError
	if errors.As(p.err, &re) && re.Class == ClassResumeRejected {
		p.lastSnap, p.lastSnapAt = nil, 0
	} else if !errors.Is(p.err, errConnLost) {
		return false
	}
	p.reset(true)
	return true
}

// reconnect redials until a stream opens or RecoverWait elapses — the
// window a crashed server (junicond restarting under a supervisor) has to
// come back. Returns false with the pipe halted on the final dial error.
func (p *RemotePipe) reconnect() bool {
	deadline := time.Now().Add(or(p.cfg.RecoverWait, DefaultRecoverWait))
	for {
		p.mu.Lock()
		var err error
		if p.out == nil {
			if err = p.start(); err != nil && time.Now().After(deadline) {
				p.halt(err) // stop re-dialing on every Next; Restart resets
			}
		}
		opened := p.out != nil
		p.mu.Unlock()
		if opened {
			return err == nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Migrate moves the live stream to the junicond at target mid-iteration
// with no values lost or duplicated: demand a snapshot from the source
// (SNAPREQ), drain everything the source already shipped into the replay
// buffer, cancel the stream, and let the next Next open the target with
// RESUME (or deterministic replay when the source refused to snapshot).
// The §3B credit window caps what can be in flight during the cutover, so
// the drain is bounded by the pipe's buffer.
func (p *RemotePipe) Migrate(target string) error {
	p.mu.Lock()
	if p.sess == nil || p.err != nil {
		// Nothing live to hand over: just point the pipe at the target.
		// With results already delivered, the next Next resumes there.
		p.addr = target
		p.mu.Unlock()
		return nil
	}
	ih, out, done, sess, sid := p.ih, p.out, p.done, p.sess, p.sid
	ch := make(chan struct{})
	p.snapWait = ch
	p.mu.Unlock()
	ih.Migrating()
	if telemetry.On() {
		cClientMigrations.Inc()
	}

	var replay []value.V
	drain := func() {
		for {
			v, ok, err := out.TryTake()
			if err != nil || !ok {
				return
			}
			replay = append(replay, v)
		}
	}
	sess.io.enqueue(frameSnapReq, sid, nil)
	// Wait for the snapshot answer while draining the queue: the producer
	// may need the read loop unblocked (queue full) before it can reach the
	// SNAPREQ, and every value it ships before the SNAPSHOT marker must be
	// in hand for the resume arithmetic.
	deadline := time.Now().Add(or(p.cfg.RecoverWait, DefaultRecoverWait))
	for waiting := true; waiting; {
		drain()
		select {
		case <-ch:
			waiting = false
		case <-done:
			waiting = false
		case <-time.After(time.Millisecond):
			if time.Now().After(deadline) {
				waiting = false // no answer: fall back to replay recovery
			}
		}
	}
	// Cut over: stop the source stream and collect everything it shipped.
	// The SNAPSHOT frame is ordered after every value its count covers, so
	// after this final drain delivered+replay >= lastSnapAt — the resume
	// skip is never negative.
	sess.closeStream(sid)
	<-done // the stream left the table: the queue is closed, nothing more arrives
	drain()
	p.mu.Lock()
	p.reset(true)
	p.addr = target
	p.replay = append(p.replay, replay...)
	p.mu.Unlock()
	return nil
}

// KillConn severs the stream's connection abruptly — no CANCEL, no
// teardown of the local state machine — exactly what a crashed peer or cut
// network looks like; on a pooled session every sibling stream loses it
// too. It is the chaos hook the kill/recovery tests drive; real code has
// no reason to call it.
func (p *RemotePipe) KillConn() {
	p.mu.Lock()
	sess := p.sess
	p.mu.Unlock()
	if sess != nil {
		sess.io.conn.Close()
	}
}

// Checkpointed reports the delivered-value count of the last checkpoint
// snapshot received, and whether one exists.
func (p *RemotePipe) Checkpointed() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSnapAt, p.lastSnap != nil
}

// SnapshotRefusal reports the server's reason for declining to checkpoint
// this stream, if it has declined ("" otherwise) — surfaced so operators
// can tell replay-recovery streams from snapshot-recovery ones.
func (p *RemotePipe) SnapshotRefusal() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapReason
}

// stopLocked ends the stream and halts the pipe, discarding what the
// stream had delivered but Next had not yet returned: a closed queue drains
// before it fails, so neither the shipped values nor a migration's replay
// may outlive the stop. Caller holds p.mu.
func (p *RemotePipe) stopLocked() {
	p.reset(true)
	p.replay = nil
	p.halt(nil)
}

// Stop terminates the stream without restarting; further Nexts fail until
// Restart — also on a pipe that never started, which must now fail, not
// dial. Safe to call at any time, including concurrently with Next.
func (p *RemotePipe) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopLocked()
}

// Restart cancels the stream and arranges for a fresh one — a fresh
// evaluation of the remote generator — on the next Next.
func (p *RemotePipe) Restart() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reset(false)
}

// Step implements the activation operator @ on the remote pipe.
func (p *RemotePipe) Step(value.V) (value.V, bool) { return p.Next() }

// Refresh implements ^: a new proxy that will open its own fresh stream.
func (p *RemotePipe) Refresh() core.Stepper {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.out != nil {
		p.stopLocked()
	}
	return &RemotePipe{addr: p.addr, cfg: p.cfg, spec: p.spec, argErr: p.argErr, dialer: p.dialer}
}

// Size reports the number of results taken so far (*P).
func (p *RemotePipe) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.results
}

// Type returns "co-expression": a remote pipe proxies one, like pipe.Pipe.
func (p *RemotePipe) Type() string { return "co-expression" }

// Image identifies the value as a remote pipe.
func (p *RemotePipe) Image() string { return fmt.Sprintf("remote-pipe(%s)", p.addr) }

// muxRx is one stream incarnation as its session sees it: the entry under
// its stream id in the table, holding what the session's read goroutine
// needs to deliver frames to the pipe between the consumer's Nexts.
type muxRx struct {
	p        *RemotePipe
	epoch    uint64 // the pipe incarnation this stream is
	sess     *Session
	sid      uint32
	stream   uint64 // telemetry stream ID (the OPEN's, stitching traces)
	label    string // span label, captured at open (addr can change later)
	out      queue.Queue[value.V]
	ih       *inspect.Handle
	done     chan struct{}
	received atomic.Int64
	start    time.Time
}

// clientRole is the dialing end of a session: it accepts what a server
// says about a stream, and a frame for a stream no longer in the table is
// dropped.
var clientRole = role{frames: &[256]handler{
	frameValues:   on((*muxRx).onValues),
	frameEOS:      on((*muxRx).onEOS),
	frameErr:      on((*muxRx).onErr),
	frameSnapshot: on((*muxRx).onSnapshot),
}}

// fail records err as the stream's, unless the pipe has moved on to a
// later incarnation: a connection loss noticed only after Restart has
// opened the next stream must not fail that one.
func (rx *muxRx) fail(err error) {
	rx.p.mu.Lock()
	if rx.p.err == nil && rx.p.epoch == rx.epoch {
		rx.p.err = err
	}
	rx.p.mu.Unlock()
}

// end completes the stream's local state. Exactly-once is the table's: an
// rx is only reachable through it, and whoever removes it ends it.
func (rx *muxRx) end(err error) {
	if err != nil {
		rx.fail(err)
	}
	close(rx.done)
	rx.out.Close()
	rx.ih.Close()
	if rx.stream != 0 {
		telemetry.EmitSpan(rx.stream, telemetry.KindStreamEnd, rx.label, rx.received.Load(), rx.start)
	}
}

// abandon fails the stream on a frame it cannot use and tells the server
// to stop producing for it.
func (rx *muxRx) abandon(err error) (bool, error) {
	rx.fail(err)
	rx.sess.io.enqueue(frameCancel, rx.sid, nil)
	return true, nil
}

func (rx *muxRx) onValues(payload []byte) (bool, error) {
	s := rx.sess
	var err error
	if s.vals, err = wire.UnmarshalBatchInto(s.vals[:0], payload, wire.DefaultLimits); err != nil {
		return rx.abandon(fmt.Errorf("remote: malformed VALUES frame: %w", err))
	}
	n := int64(len(s.vals))
	rx.received.Add(n)
	if rx.stream != 0 && telemetry.On() {
		cClientValues.Add(n)
	}
	if _, err := rx.out.PutBatch(s.vals); err != nil {
		// The consumer closed the queue under the stream (Stop, deadline).
		s.io.enqueue(frameCancel, rx.sid, nil)
		return true, nil
	}
	rx.ih.Produced(n)
	return false, nil
}

func (rx *muxRx) onEOS([]byte) (bool, error) { return true, nil }

func (rx *muxRx) onErr(payload []byte) (bool, error) {
	rx.fail(parseErr(payload))
	return true, nil
}

func (rx *muxRx) onSnapshot(payload []byte) (bool, error) {
	produced, ok, rest, err := parseSnapshot(payload)
	if err != nil {
		return rx.abandon(err)
	}
	rx.p.noteSnapshot(produced, ok, rest)
	return false, nil
}
