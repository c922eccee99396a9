package semtest

import (
	"fmt"

	"junicon/internal/remote"
)

// Chaos lanes: the durability counterpart of the schedule-stress lane.
// Where SchedQueue perturbs the transport's interleavings, these lanes
// perturb its *lifetime* — severing the connection or migrating the stream
// to another node at a seeded point mid-iteration — and still demand a
// trace byte-identical to the sequential reference. Crash recovery and
// live migration are availability features; this file is the executable
// statement that they are *only* availability features.

// disruptAt is drainPipe's hook that fires disrupt once, immediately
// before the Next call that would deliver value number after (0-based). If
// the stream ends before that point the disruption never fires — a kill or
// migration aimed past EOS is a no-op by construction.
func disruptAt(after int, disrupt func()) func(int) {
	return func(i int) {
		if i == after {
			disrupt()
		}
	}
}

// Killed evaluates the case as a recoverable source stream against addr,
// abruptly severs the transport just before value number `after` would be
// delivered, and lets the recovery machinery (snapshot resume when
// cfg.CheckpointEvery produced one, deterministic replay otherwise) finish
// the iteration. The combined trace must equal the sequential reference.
func Killed(c Case, addr string, cfg remote.Config, after int) (Result, error) {
	cfg.Recover = true
	p := remote.OpenSource(addr, c.Program, c.Expr, nil, cfg)
	p.StartEager()
	r := drainPipe(p, c.max(), disruptAt(after, p.KillConn))
	if err := refused(p.Err(), r); err != nil {
		return Result{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	return r, nil
}

// Migrated evaluates the case against addrA, live-migrates the stream to
// addrB just before value number `after` would be delivered, and finishes
// the iteration on the target node. No value may be lost, duplicated or
// reordered across the cutover: the trace must equal the sequential
// reference exactly.
func Migrated(c Case, addrA, addrB string, cfg remote.Config, after int) (Result, error) {
	p := remote.OpenSource(addrA, c.Program, c.Expr, nil, cfg)
	p.StartEager()
	var migErr error
	r := drainPipe(p, c.max(), disruptAt(after, func() { migErr = p.Migrate(addrB) }))
	if migErr != nil {
		return Result{}, fmt.Errorf("%s: migrate: %w", c.Name, migErr)
	}
	if err := refused(p.Err(), r); err != nil {
		return Result{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	return r, nil
}
