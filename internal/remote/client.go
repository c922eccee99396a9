package remote

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/pipe"
	"junicon/internal/queue"
	"junicon/internal/telemetry"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// cCreditsSent counts CREDIT frames, fed through each incarnation's record.
var cCreditsSent = telemetry.NewCounter("remote.client.credits_sent")

// Defaults for Config zero values.
const (
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
	// bounded queue size (§3B throttling). <= 0 selects pipe.DefaultBuffer;
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
// a pipe.Pipe whose producer is a stream on a session, so Next, Stop,
// Restart, Refresh, Size, Err, StartEager and First are the pipe's, and it
// composes under product, alternation, limit, promotion and mapreduce
// unchanged. RemotePipe adds only what is the wire's.
//
// The stream opens lazily on the first Next (as |>e spawns its thread on
// first use); Restart cancels the stream and re-opens a fresh one, which
// re-evaluates the remote generator from the start — the network analogue
// of ^ over a refreshed co-expression.
//
// The pipe keeps how many values it has delivered; RemotePipe holds the
// rest of what survives a reopen — where it dials, what it asks for, the
// last checkpoint — and one pointer, cur, to the stream incarnation that
// does not. Every incarnation ends in reset and every one after the first
// begins in reopen; anything captured from an incarnation (a credit grant,
// a deadline timer, a SNAPSHOT answer, a late ERR, a teardown) can only
// speak to that incarnation, and p.cur == rx is the one test of whether it
// is still the pipe's. There is no epoch to compare.
type RemotePipe struct {
	*pipe.Pipe

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
	dialer *Dialer
	// cur is the current stream incarnation: nil while the pipe is unopened,
	// stopped or between a reopen's dials (redial is then the timer that
	// reopen waits on).
	cur    *muxRx
	redial *time.Timer
	err    error
	stream uint64 // the record's stream ID, propagated in OPEN; 0 = unobserved
	// lastSnap and lastSnapAt are the most recent checkpoint blob and the
	// delivered count it corresponds to (snapReason the server's refusal to
	// take one): where a reopen resumes from.
	lastSnap   []byte
	lastSnapAt uint64
	snapReason string
}

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
	return p.over()
}

// over gives p its consumer, whose runs are capped at the OPEN's batch.
func (p *RemotePipe) over() *RemotePipe {
	p.Pipe = pipe.Over((*transport)(p), int(p.composeOpen(0).batch))
	return p
}

// transport is a RemotePipe as its pipe sees it: a type of its own, so
// that these are not RemotePipe's methods.
type transport RemotePipe

// Open begins a fresh evaluation, from no checkpoint.
func (t *transport) Open() (pipe.Stream, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastSnap, t.lastSnapAt, t.snapReason = nil, 0, ""
	if t.err = (*RemotePipe)(t).begin(0); t.err != nil {
		return nil, t.err
	}
	return t.cur, nil
}

// Refresh is ^: a new proxy that will open its own fresh stream.
func (t *transport) Refresh() core.Stepper {
	t.mu.Lock()
	defer t.mu.Unlock()
	return (&RemotePipe{addr: t.addr, cfg: t.cfg, spec: t.spec, argErr: t.argErr, dialer: t.dialer}).over()
}

// Stop ends the stream, and a reopen waiting to continue it.
func (t *transport) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	(*RemotePipe)(t).reset()
}

// Err reports the error that terminated the stream, if any: a
// *RemoteError for server-side producer errors and rejections, ErrDeadline
// for per-call deadline expiry, or a connection/protocol error. A remote
// generator that simply ran to failure leaves Err nil, exactly as
// pipe.Pipe distinguishes exhaustion from producer error.
func (t *transport) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// composeOpen builds the OPEN for a new stream incarnation at position at.
// Caller holds p.mu.
func (p *RemotePipe) composeOpen(at uint64) openReq {
	open := p.spec
	open.credit = uint64(or(p.cfg.Buffer, pipe.DefaultBuffer))
	open.stream = p.stream
	if open.batch = 1; p.cfg.Batch >= 0 {
		open.batch = uint64(or(p.cfg.Batch, DefaultBatch))
	}
	open.interval = uint64(max(p.cfg.CheckpointEvery, 0))
	// Continuation: an open past values a previous incarnation delivered is
	// a recovery or migration, not a fresh evaluation. Resume from the last
	// checkpoint when one covers that prefix (skip bridges the values
	// delivered past the snapshot); otherwise ask the server to re-run the
	// generator and skip the whole prefix.
	if at > 0 {
		if p.lastSnap != nil && at >= p.lastSnapAt {
			open.mode = openResume
			open.name, open.program, open.expr = "", "", ""
			open.blob = p.lastSnap
			open.skip = at - p.lastSnapAt
		} else {
			open.skip = at
		}
	}
	return open
}

// begin makes one attempt at the next incarnation: a logical stream on a
// session from the pipe's dialer — dialing one when the pool has no room,
// always for a package-level pipe — with its bounded queue and its record
// armed before the OPEN reaches the wire. This is the one place a stream
// is opened: a pipe's first stream and every reopen come through it.
// Caller holds p.mu, on a pipe that reset left without an incarnation.
func (p *RemotePipe) begin(at uint64) error {
	if p.argErr != nil {
		return p.argErr
	}
	sess, err := p.dialer.session(p.addr)
	if err != nil {
		return err
	}
	// The record's ID is the stream's, and the OPEN carries it: the
	// server's record adopts it, which stitches the two sides' traces.
	ih := inspect.Open(p.stream, inspect.KindRemoteClient, "remote:", p.addr)
	if ih != nil {
		p.stream = ih.ID()
	}
	open := p.composeOpen(at)
	rx := &muxRx{
		p:     p,
		at:    at,
		ih:    ih,
		out:   queue.NewArrayBlocking[value.V](int(open.credit)),
		batch: int(open.batch),
		done:  make(chan struct{}),
	}
	if ih != nil {
		ih.SetCredit(int64(open.credit))
		ih.SetConn(sess.id)
		if open.skip > 0 || open.mode == openResume {
			ih.NoteResumed()
		}
	}
	if err := sess.openStream(rx, &open); err != nil {
		// The session died under the reservation and openStream has ended
		// rx. The error wraps errConnLost, so a reopen under Recover redials.
		return err
	}
	p.cur = rx
	return nil
}

// reset ends the current stream incarnation — cancelling it if it is still
// live, which closes its queue and record; one that has left its session's
// table was ended by whoever took it out — and leaves the pipe without one.
// Every way an incarnation ends (Stop, Restart, Refresh, recovery,
// Migrate's cut-over) comes through here, and a reopen waiting out the
// pause between two dials is woken to find the pipe taken from it. Caller
// holds p.mu.
func (p *RemotePipe) reset() {
	if p.cur != nil {
		p.cur.sess.closeStream(p.cur.sid)
	}
	if p.redial != nil {
		p.redial.Reset(0)
	}
	p.cur, p.redial = nil, nil
}

// redialEvery is the pause between a reopen's dials.
var redialEvery = 100 * time.Millisecond

// reopen is the one way an incarnation follows another: it ends the current
// one and opens a stream on addr at position at — composeOpen's arithmetic
// over it and the last snapshot. End's recovery and Migrate, of a live
// stream or a dead one, both come through here. Under Config.Recover a
// failed dial is retried until RecoverWait has passed — the window a
// crashed server (junicond restarting under a supervisor) has to come
// back; the last error is the pipe's. The pause between dials is one timer
// that reset fires, so a Stop or Restart ends the reopen at once. Caller
// holds p.mu, which is released for the pause.
func (p *RemotePipe) reopen(addr string, at uint64) error {
	p.reset()
	p.addr, p.err = addr, nil
	deadline := time.Now().Add(or(p.cfg.RecoverWait, DefaultRecoverWait))
	for {
		err := p.begin(at)
		if err == nil {
			return nil
		}
		if !p.cfg.Recover || time.Now().After(deadline) {
			p.err = err // no dial on every Next: Restart opens afresh
			return err
		}
		pause := time.NewTimer(redialEvery)
		p.redial = pause
		p.mu.Unlock()
		<-pause.C
		p.mu.Lock()
		if p.redial != pause {
			return errors.New("remote: stopped or restarted while reopening")
		}
		p.redial = nil
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
// The debt is zeroed under p.mu and the CREDIT written later, and a reopen
// can swap the incarnation in between. The next one already opens with a
// full-buffer grant, so a stale grant landing on it would credit the
// producer past the §3B bound; it cannot, because the grant goes to the
// session and stream id of the incarnation it was counted on — by then a
// dead connection or a finished stream id, both of which discard it.
func (rx *muxRx) flushCredits(demand bool) {
	rx.p.mu.Lock()
	debt := rx.debt
	rx.debt = 0
	rx.p.mu.Unlock()
	if debt == 0 && !demand {
		return
	}
	rx.ih.Count(cCreditsSent, 1)
	if testHookFlushPause != nil {
		testHookFlushPause()
	}
	rx.sess.io.enqueue(frameCredit, rx.sid, creditPayload(debt)) // best effort; loss surfaces in the session loop
}

// The pipe.Stream hooks: what the pipe's consumer calls around an
// incarnation's queue.

func (rx *muxRx) Queue() (queue.Queue[value.V], *inspect.Handle) { return rx.out, rx.ih }

// Demand is the consumer about to block on the empty queue: it hands back
// whatever credits are owed and signals demand, so the server ships its
// partial run instead of waiting to fill a batch — a run cap of one is
// never partial — and arms the per-call deadline, which the next delivery
// or the queue's end disarms.
func (rx *muxRx) Demand() {
	if rx.batch > 1 {
		rx.flushCredits(true)
	}
	if d := rx.p.cfg.Deadline; d > 0 {
		rx.p.mu.Lock()
		rx.deadline = time.AfterFunc(d, rx.expire)
		rx.p.mu.Unlock()
	}
}

// expire is a Next's deadline passing: the stream fails and is torn down —
// this stream only: on a shared session the per-stream close leaves
// siblings undisturbed.
func (rx *muxRx) expire() {
	rx.fail(ErrDeadline)
	rx.sess.closeStream(rx.sid)
}

// Delivered grants the producer one replacement credit per value Next
// hands out, so at most Buffer values are ever in flight — the §3B
// throttle, across the wire, the consumer's held run inside it.
func (rx *muxRx) Delivered() {
	p := rx.p
	p.mu.Lock()
	if rx.deadline != nil {
		rx.deadline.Stop()
	}
	rx.debt++
	// One CREDIT per run: a batch's worth of grants coalesce into one
	// frame, with Demand's ping covering the tail. A run cap of one is the
	// per-value ACK clock.
	grant := rx.debt >= uint64(rx.batch)
	if rx.ih != nil {
		// The credit balance is the window minus uncredited consumption:
		// what the server may still send before its next stall.
		rx.ih.SetCredit(int64(uint64(or(p.cfg.Buffer, pipe.DefaultBuffer)) - rx.debt))
	}
	p.mu.Unlock()
	if grant {
		rx.flushCredits(false)
	}
}

// End is the consumer past rx's closed queue: the incarnation Migrate
// opened to follow rx — while it leads to the current one, so no Stop or
// Restart has come between — or one a reopen opens now if what ended rx
// is cured by one, continues the stream past every value rx received.
func (rx *muxRx) End() pipe.Stream {
	at := rx.position()
	p := rx.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if rx.deadline != nil {
		rx.deadline.Stop() // the wait it bounded is over
	}
	for n := rx.next; n != nil; n = n.next {
		if n == p.cur {
			return rx.next
		}
	}
	if p.cur != rx || !p.recoverable() || p.reopen(p.addr, at) != nil {
		return nil
	}
	return p.cur
}

// position is where a stream continuing rx opens: past every value rx put
// in its queue, which must be closed.
func (rx *muxRx) position() uint64 {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	return rx.at + rx.received
}

// recoverable decides whether what ended the current incarnation is cured
// by a reopen rather than surfaced: only under Config.Recover, and only
// connection loss or a rejected resume — whose snapshot didn't take (stale
// blob, resume disabled on the target) and is dropped, so the reopen
// recovers by deterministic replay instead. A server-side producer error,
// a refused OPEN or a consumer deadline is final either way. Caller holds
// p.mu.
func (p *RemotePipe) recoverable() bool {
	var re *RemoteError
	if errors.As(p.err, &re) && re.Class == ClassResumeRejected {
		p.lastSnap, p.lastSnapAt = nil, 0
	} else if !errors.Is(p.err, errConnLost) {
		return false
	}
	return p.cfg.Recover
}

// Migrate moves the stream to the junicond at target mid-iteration with no
// values lost or duplicated: demand a snapshot from the source (SNAPREQ),
// cancel the stream, and reopen at the target past everything the source
// already shipped — a resume-mode OPEN, or deterministic replay when the
// source refused to snapshot or had already died. The pipe delivers what
// it holds of the source's values first: End hands it the target's
// stream once they are gone. The §3B credit window caps what can be in
// flight during the cutover — and the session loop's put into the
// source's queue never waits on this consumer, so the answer is awaited
// without draining.
func (p *RemotePipe) Migrate(target string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rx := p.cur; rx != nil {
		answered := make(chan struct{})
		rx.snapWait = answered
		p.mu.Unlock()
		rx.ih.Migrating()
		rx.sess.io.enqueue(frameSnapReq, rx.sid, nil)
		giveUp := time.NewTimer(or(p.cfg.RecoverWait, DefaultRecoverWait))
		select {
		case <-answered:
		case <-rx.done: // dead already, or dying: no answer will come
		case <-giveUp.C: // no answer: fall back to replay recovery
		}
		giveUp.Stop()
		// Cut over: stop the source stream and open the target past
		// everything it shipped. The SNAPSHOT frame is ordered after every
		// value its count covers, so the position >= lastSnapAt — the resume
		// skip is never negative.
		rx.sess.closeStream(rx.sid)
		<-rx.done // out of the table, queue closed: nothing more arrives
		at := rx.position()
		p.mu.Lock()
		if p.cur == rx {
			err := p.reopen(target, at)
			rx.next = p.cur
			return err
		}
	}
	// Unopened, stopped, between a reopen's dials, or taken by a Stop or
	// Restart meanwhile: nothing to hand over, and whatever opens the next
	// stream opens it at the target.
	p.addr = target
	return nil
}

// KillConn severs the stream's connection abruptly — no CANCEL, no
// teardown of the local state machine — exactly what a crashed peer or cut
// network looks like; on a pooled session every sibling stream loses it
// too. It is the chaos hook the kill/recovery tests drive; real code has
// no reason to call it.
func (p *RemotePipe) KillConn() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur != nil {
		p.cur.sess.io.conn.Close()
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

// Image identifies the value as a remote pipe.
func (p *RemotePipe) Image() string { return fmt.Sprintf("remote-pipe(%s)", p.addr) }

// muxRx is one stream incarnation — everything about a pipe that a reopen
// replaces — and the entry under its stream id in its session's table,
// where the session's read goroutine finds it to deliver frames between
// the consumer's Nexts.
type muxRx struct {
	p    *RemotePipe
	sess *Session
	sid  uint32
	out  queue.Queue[value.V]
	ih   *inspect.Handle // the incarnation's record; nil when it was unobserved
	// done is closed once the stream has left its session's table and its
	// queue is closed: nothing more will arrive for it.
	done chan struct{}
	// batch is the run cap sent in the OPEN; debt counts values consumed but
	// not yet credited back, coalesced into one CREDIT frame per run;
	// snapWait is closed when a SNAPSHOT answer (blob or refusal) lands for
	// the Migrate that asked; next is the incarnation a Migrate opened to
	// follow this one. debt, snapWait, next and deadline are guarded by
	// p.mu.
	batch    int
	debt     uint64
	snapWait chan struct{}
	next     *muxRx
	deadline *time.Timer // armed by a Demand, stopped by the next delivery
	// at is the stream position the incarnation opened at, and received
	// counts the values put in its queue, under mu, which orders the last
	// put before a cut-over's read.
	at, received uint64
	mu           sync.Mutex
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

// fail records err as the stream's, unless the pipe has moved on from this
// incarnation: a connection loss noticed only after Restart has opened the
// next stream must not fail that one.
func (rx *muxRx) fail(err error) {
	rx.p.mu.Lock()
	if rx.p.err == nil && rx.p.cur == rx {
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
	rx.out.Close()
	close(rx.done)
	rx.ih.Close()
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
	rx.mu.Lock()
	n, err := rx.out.PutBatch(s.vals)
	rx.received += uint64(n)
	rx.mu.Unlock()
	if err != nil {
		return true, nil // only end closes the queue: the stream has left the table under this frame
	}
	rx.ih.Produced(int64(len(s.vals)))
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
	// An answer dispatched for a stream the pipe has since reset is not the
	// next incarnation's checkpoint, nor the answer its Migrate waits on.
	p := rx.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur != rx {
		return false, nil
	}
	if ok {
		p.lastSnap = append([]byte(nil), rest...)
		p.lastSnapAt = produced
		p.snapReason = ""
	} else {
		p.snapReason = string(rest)
	}
	if rx.snapWait != nil {
		close(rx.snapWait)
		rx.snapWait = nil
	}
	return false, nil
}
