// Benchmarks for the durability layer (DESIGN.md Ablation K): the cost of
// capturing a suspended compiled generator into a snapshot blob, the cost
// of restoring one, and — the number a deployment actually tunes — the
// per-value throughput tax of interval checkpointing on a remote stream
// at increasing cadences. Interval 0 is the undisturbed baseline; interval
// 1 checkpoints after every delivered value, the worst case.
package junicon_test

import (
	"io"
	"sync"
	"testing"

	"junicon"
	"junicon/internal/checkpoint"
	"junicon/internal/remote"
)

// checkpointBenchProgram keeps a live child frame and a mutated global in
// the tower, so the capture walks the same shapes the round-trip tests pin.
const checkpointBenchProgram = `
global acc
def cgen(a, b) { suspend a to b; }
def csum(n) {
  acc := 0;
  every i := 1 to n do { acc := acc + i; suspend acc; };
}
`

// checkpointBenchGen compiles expr and drains cut values, returning the
// suspended generator mid-iteration.
func checkpointBenchGen(b *testing.B, expr string, cut int) junicon.Gen {
	b.Helper()
	in := junicon.NewInterp(io.Discard)
	if err := in.LoadProgram(checkpointBenchProgram); err != nil {
		b.Fatal(err)
	}
	g, err := in.EvalGen(expr)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatalf("generator exhausted after %d of %d values", i, cut)
		}
	}
	return g
}

// BenchmarkCheckpointSnapshot measures capturing a suspended two-frame
// tower (caller + live child) into a versioned checksummed blob.
func BenchmarkCheckpointSnapshot(b *testing.B) {
	g := checkpointBenchGen(b, "cgen(1, 1000000)", 7)
	meta := checkpoint.Meta{Program: checkpointBenchProgram, Expr: "cgen(1, 1000000)", Produced: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.Snapshot(g, meta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRestore measures rebuilding a resumable Machine from
// a blob — decode, verify, fingerprint-check, rehydrate the tower and the
// captured global cells.
func BenchmarkCheckpointRestore(b *testing.B) {
	g := checkpointBenchGen(b, "csum(1000000)", 9)
	blob, err := checkpoint.Snapshot(g, checkpoint.Meta{
		Program: checkpointBenchProgram, Expr: "csum(1000000)", Produced: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := junicon.NewInterp(io.Discard)
	if err := in.LoadProgram(checkpointBenchProgram); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := in.RestoreSnapshot(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointResume measures the full recovery unit: restore the
// blob and deliver the next 100 values of the resumed sequence.
func BenchmarkCheckpointResume(b *testing.B) {
	g := checkpointBenchGen(b, "cgen(1, 1000000)", 7)
	blob, err := checkpoint.Snapshot(g, checkpoint.Meta{
		Program: checkpointBenchProgram, Expr: "cgen(1, 1000000)", Produced: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := junicon.NewInterp(io.Discard)
	if err := in.LoadProgram(checkpointBenchProgram); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg, _, err := in.RestoreSnapshot(blob)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			if _, ok := rg.Next(); !ok {
				b.Fatalf("resumed generator exhausted after %d values", j)
			}
		}
	}
}

var (
	ckptBenchOnce sync.Once
	ckptBenchAddr string
)

// ckptBenchServer serves vetted source streams over loopback for the
// interval ablation; shared across the sweep like remoteBenchServer.
func ckptBenchServer(b *testing.B) string {
	b.Helper()
	ckptBenchOnce.Do(func() {
		s := remote.NewServer()
		s.AllowSource = true
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		ckptBenchAddr = addr.String()
	})
	return ckptBenchAddr
}

// benchCheckpointInterval streams b.N values of a compiled source
// generator over loopback TCP, checkpointing every `every` values (0 =
// checkpointing off). The delta against interval 0 is the durability tax.
func benchCheckpointInterval(b *testing.B, every int) {
	addr := ckptBenchServer(b)
	p := remote.OpenSource(addr, "def cgen(a, b) { suspend a to b; }",
		"cgen(1, 1000000000)", nil,
		remote.Config{Buffer: 1024, CheckpointEvery: every})
	defer p.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Next(); !ok {
			b.Fatalf("remote pipe ended after %d of %d values: %v", i, b.N, p.Err())
		}
	}
	b.StopTimer()
	if every > 0 {
		if refusal := p.SnapshotRefusal(); refusal != "" {
			b.Fatalf("stream refused checkpointing: %s", refusal)
		}
	}
}

func BenchmarkAblationCheckpointInterval_0(b *testing.B)  { benchCheckpointInterval(b, 0) }
func BenchmarkAblationCheckpointInterval_1(b *testing.B)  { benchCheckpointInterval(b, 1) }
func BenchmarkAblationCheckpointInterval_8(b *testing.B)  { benchCheckpointInterval(b, 8) }
func BenchmarkAblationCheckpointInterval_64(b *testing.B) { benchCheckpointInterval(b, 64) }
