package remote

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"junicon/internal/value"
)

// Durable-generator tests: checkpoint/restore, recovery fallbacks, and the
// redial credit race. (Crash recovery and live migration proper are rows of
// lifecycle_test.go.)

const towerProgram = "def gen(a, b) { suspend a to b; }"

// sourcePipe opens a source stream on a checkpoint-capable server.
func sourcePipe(t *testing.T, addr, expr string, cfg Config) *RemotePipe {
	t.Helper()
	p := OpenSource(addr, towerProgram, expr, nil, cfg)
	t.Cleanup(p.Stop)
	return p
}

// TestIntervalCheckpointArrives: a source stream with CheckpointEvery
// delivers SNAPSHOT frames as it flows, and the client retains the latest.
func TestIntervalCheckpointArrives(t *testing.T) {
	_, addr := startServer(t, func(s *Server) { s.AllowSource = true })
	cfg := testConfig()
	cfg.CheckpointEvery = 4
	p := sourcePipe(t, addr, "1 to 20", cfg)
	got := drainInts(t, p, 100)
	assertInts(t, got, wantRange(1, 20))
	if p.Err() != nil {
		t.Fatalf("err: %v", p.Err())
	}
	// The last interval checkpoint covers a multiple of 4 values; exactly
	// which one depends on read timing, but at least one must have landed.
	within(t, 2*time.Second, "checkpoint arrival", func() {
		for {
			if at, ok := p.Checkpointed(); ok {
				if at == 0 || at%4 != 0 {
					t.Errorf("checkpoint at %d, want a positive multiple of 4", at)
				}
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestNamedStreamRefusesCheckpoint: a registered Go generator is not a vm
// frame; asking it to checkpoint yields a refusal reason, and the stream
// flows on unharmed.
func TestNamedStreamRefusesCheckpoint(t *testing.T) {
	_, addr := startServer(t, nil)
	cfg := testConfig()
	cfg.CheckpointEvery = 2
	p := Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(10)}, cfg)
	t.Cleanup(p.Stop)
	got := drainInts(t, p, 100)
	assertInts(t, got, wantRange(1, 10))
	if p.Err() != nil {
		t.Fatalf("err: %v", p.Err())
	}
	within(t, 2*time.Second, "refusal arrival", func() {
		for p.SnapshotRefusal() == "" {
			time.Sleep(5 * time.Millisecond)
		}
	})
	if _, ok := p.Checkpointed(); ok {
		t.Fatal("refused stream should have no snapshot")
	}
}

// TestRecoveryDisabledStaysFatal: without Config.Recover a severed
// connection is a stream error.
func TestRecoveryDisabledStaysFatal(t *testing.T) {
	_, addr := startServer(t, func(s *Server) { s.AllowSource = true })
	p := sourcePipe(t, addr, "1 to 30", testConfig())
	drainInts(t, p, 5)
	p.KillConn()
	within(t, 5*time.Second, "post-kill drain", func() { drainInts(t, p, 100) })
	if p.Err() == nil {
		t.Fatal("want connection-loss error")
	}
}

// TestMigrationReplayFallback: migrating a stream whose generator refuses
// to snapshot (named Go generator) falls back to deterministic replay on
// the target — still no values lost or duplicated.
func TestMigrationReplayFallback(t *testing.T) {
	_, addrA := startServer(t, nil)
	_, addrB := startServer(t, nil)
	p := Open(addrA, "range", []value.V{value.NewInt(1), value.NewInt(25)}, testConfig())
	t.Cleanup(p.Stop)
	got := drainInts(t, p, 7)
	within(t, 10*time.Second, "migration", func() {
		if err := p.Migrate(addrB); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	within(t, 10*time.Second, "post-migration drain", func() {
		got = append(got, drainInts(t, p, 100)...)
	})
	if p.Err() != nil {
		t.Fatalf("err after migration: %v", p.Err())
	}
	assertInts(t, got, wantRange(1, 25))
}

// TestResumeRejectedFallsBackToReplay: a client holding a snapshot whose
// target refuses RESUME (source streams disabled there) must drop the blob
// and still recover the exact sequence by replay... which a named-mode
// pipe can do on any server. Source-mode pipes surface the rejection
// only if replay is impossible too.
func TestResumeRejectedFallsBackToReplay(t *testing.T) {
	_, addrA := startServer(t, func(s *Server) { s.AllowSource = true })
	_, addrB := startServer(t, func(s *Server) { s.AllowSource = true })
	cfg := testConfig()
	cfg.Recover = true
	cfg.CheckpointEvery = 2
	p := sourcePipe(t, addrA, "1 to 20", cfg)
	got := drainInts(t, p, 9)
	// Poison the snapshot so the target rejects the RESUME structurally,
	// forcing the rejected-resume path rather than a clean restore.
	p.mu.Lock()
	if p.lastSnap != nil {
		p.lastSnap[len(p.lastSnap)-1] ^= 0x5a
	}
	p.mu.Unlock()
	within(t, 10*time.Second, "migration", func() {
		if err := p.Migrate(addrB); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	within(t, 10*time.Second, "post-migration drain", func() {
		got = append(got, drainInts(t, p, 100)...)
	})
	if p.Err() != nil {
		t.Fatalf("err: %v", p.Err())
	}
	assertInts(t, got, wantRange(1, 20))
}

// TestCheckpointDirPersists: a server with CheckpointDir keeps the latest
// snapshot of each stream on disk, atomically renamed into place.
func TestCheckpointDirPersists(t *testing.T) {
	dir := t.TempDir()
	_, addr := startServer(t, func(s *Server) {
		s.AllowSource = true
		s.CheckpointDir = dir
	})
	cfg := testConfig()
	cfg.CheckpointEvery = 5
	p := sourcePipe(t, addr, "1 to 20", cfg)
	assertInts(t, drainInts(t, p, 100), wantRange(1, 20))
	within(t, 2*time.Second, "snapshot file", func() {
		for {
			files, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
			if len(files) > 0 {
				if data, err := os.ReadFile(files[0]); err != nil || len(data) == 0 ||
					!strings.HasPrefix(string(data), "JSNP") {
					t.Errorf("persisted snapshot unreadable: %v (%d bytes)", err, len(data))
				}
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// incarnationOn is a bare incarnation of p on conn's session under stream
// id 1, current: what flushCredits needs and no more.
func incarnationOn(t *testing.T, p *RemotePipe, conn net.Conn, debt uint64) *muxRx {
	sess := &Session{io: newMuxIO(conn, nil)}
	t.Cleanup(func() { sess.io.fail(errConnLost) })
	rx := &muxRx{p: p, sess: sess, sid: 1, debt: debt}
	p.mu.Lock()
	p.cur = rx
	p.mu.Unlock()
	return rx
}

// TestRedialCreditGrantCannotDoubleGrant pins the credit/redial race: a
// CREDIT grant captures its debt under p.mu, then writes later — and a
// reopen (recovery, migration) can swap the incarnation in between. The new
// incarnation already opened with a full-buffer grant, so the stale grant
// landing on its connection would raise the server's credit window above
// the §3B bound. A grant is its incarnation's: it goes to the session and
// stream id it was counted on, never to whatever the pipe holds now.
//
// Routed through the pipe's current incarnation instead, the stale
// CREDIT(3) frame arrives on conn B and this test fails.
func TestRedialCreditGrantCannotDoubleGrant(t *testing.T) {
	aClient, aServer := net.Pipe()
	bClient, bServer := net.Pipe()
	defer aClient.Close()
	defer aServer.Close()
	defer bClient.Close()
	defer bServer.Close()

	p := &RemotePipe{addr: "test"}
	old := incarnationOn(t, p, aClient, 3)

	// Interleave a reopen between the debt capture and the CREDIT write:
	// exactly what Next's recovery path does when the connection drops
	// while a grant is in flight.
	var live *muxRx
	testHookFlushPause = func() { live = incarnationOn(t, p, bClient, 0) }
	defer func() { testHookFlushPause = nil }()

	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		old.flushCredits(false)
	}()

	// The stale grant must NOT arrive on the new connection.
	bServer.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 16)
	if n, err := bServer.Read(buf); err == nil {
		t.Fatalf("stale CREDIT grant reached the new stream: % x", buf[:n])
	}
	within(t, time.Second, "flushCredits return", func() { <-flushed })

	// And the debt was genuinely consumed — not silently re-queued, on
	// either incarnation, where a later flush would double-grant it after
	// all.
	p.mu.Lock()
	debt := old.debt + live.debt
	p.mu.Unlock()
	if debt != 0 {
		t.Fatalf("debt %d re-queued after drop; stale credits must vanish", debt)
	}
}

// TestFreshGrantStillFlows sanity-checks the other side: a grant counted on
// the live incarnation is written normally.
func TestFreshGrantStillFlows(t *testing.T) {
	aClient, aServer := net.Pipe()
	defer aClient.Close()
	defer aServer.Close()
	rx := incarnationOn(t, &RemotePipe{addr: "test"}, aClient, 5)

	got := make(chan []byte, 1)
	go func() {
		fr := newFrameReader(aServer, 0)
		defer fr.release()
		typ, sid, payload, err := fr.readMux()
		if err != nil || typ != frameCredit || sid != 1 {
			got <- nil
			return
		}
		got <- append([]byte(nil), payload...)
	}()
	rx.flushCredits(false)
	within(t, time.Second, "credit arrival", func() {
		payload := <-got
		if payload == nil {
			t.Error("no CREDIT frame arrived")
			return
		}
		n, err := parseCredit(payload)
		if err != nil || n != 5 {
			t.Errorf("credit %d err %v, want 5", n, err)
		}
	})
}

// TestV4OpenCodecRoundTrip pins the OPEN fields, resume mode included,
// at the byte level: one layout, led by the one version. (The name is from
// the protocol revision that added the durability fields.)
func TestV4OpenCodecRoundTrip(t *testing.T) {
	blob := []byte("JSNP-fake-blob")
	cases := []openReq{
		{mode: openNamed, credit: 7, stream: 9, batch: 16, interval: 100, skip: 3, name: "range"},
		{mode: openSource, credit: 1, interval: 0, skip: 0, program: "def f() { return 1; }", expr: "f()"},
		{mode: openResume, credit: 8, stream: 2, batch: 4, interval: 10, skip: 5, blob: blob},
		{mode: openMux, credit: 256, stream: 11},
	}
	for _, want := range cases {
		got, err := parseOpen(want.marshal())
		if err != nil {
			t.Fatalf("mode %d: %v", want.mode, err)
		}
		if got.mode != want.mode || got.credit != want.credit || got.stream != want.stream ||
			got.batch != want.batch || got.interval != want.interval || got.skip != want.skip ||
			got.name != want.name || got.program != want.program || got.expr != want.expr ||
			string(got.blob) != string(want.blob) {
			t.Fatalf("mode %d round trip:\n got %+v\nwant %+v", want.mode, got, want)
		}
	}
	// Any other version is refused by number, whatever follows it.
	for _, ver := range []byte{0, 1, 4, 5, 7} {
		payload := (&openReq{mode: openNamed, name: "x"}).marshal()
		payload[0] = ver
		if _, err := parseOpen(payload); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("protocol version %d, want %d", ver, protocolVersion)) {
			t.Fatalf("version %d: %v", ver, err)
		}
	}
}

// TestSnapshotPayloadCodec pins the SNAPSHOT frame codec.
func TestSnapshotPayloadCodec(t *testing.T) {
	for _, tc := range []struct {
		produced uint64
		ok       bool
		rest     string
	}{
		{0, false, "not a compiled frame"},
		{12345, true, "JSNP..."},
	} {
		produced, ok, rest, err := parseSnapshot(snapshotPayload(tc.produced, tc.ok, []byte(tc.rest)))
		if err != nil || produced != tc.produced || ok != tc.ok || string(rest) != tc.rest {
			t.Fatalf("round trip %+v: got (%d,%v,%q,%v)", tc, produced, ok, rest, err)
		}
	}
	if _, _, _, err := parseSnapshot(nil); err == nil {
		t.Fatal("empty SNAPSHOT payload must error")
	}
}

// TestRecoverySkipPastEOS: recovering a stream that already ended gets a
// clean EOS, not a hang or duplicate values.
func TestRecoverySkipPastEOS(t *testing.T) {
	_, addr := startServer(t, func(s *Server) { s.AllowSource = true })
	cfg := testConfig()
	cfg.Recover = true
	p := sourcePipe(t, addr, "1 to 6", cfg)
	got := drainInts(t, p, 100)
	assertInts(t, got, wantRange(1, 6))
	if p.Err() != nil {
		t.Fatalf("err: %v", p.Err())
	}
	// Migrating (or otherwise reopening) after EOS: the replayed stream
	// skips everything and ends immediately.
	within(t, 10*time.Second, "post-EOS migrate", func() {
		if err := p.Migrate(addr); err != nil {
			t.Errorf("migrate: %v", err)
		}
		if extra := drainInts(t, p, 10); len(extra) != 0 {
			t.Errorf("post-EOS values %v", extra)
		}
	})
	if p.Err() != nil {
		t.Fatalf("err: %v", p.Err())
	}
}
