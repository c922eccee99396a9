package junicon_test

import (
	"path/filepath"
	"sort"
	"testing"

	"junicon/internal/interp"
	"junicon/internal/wordcount"
)

// ---- The load path: parse → normalize → facts → define → compile ----
//
// BenchmarkLoadProgram_* price what a fresh script process pays before its
// first driver runs: Figure 3's word count (wordcount.NewInterpreter) plus
// the six programs of the ledger's `vm` set, one LoadProgram each. B/op and
// allocs/op are the numbers to watch — a load that litters carries the
// process to the runtime's first GC cycle in the middle of its drivers
// (EXPERIMENTS.md, "The load path").

// vmSetSources reads benchmark/programs/vm/*.jn in name order (the order
// the ledger loads them in).
func vmSetSources(tb testing.TB) []string {
	files, err := filepath.Glob(filepath.Join("benchmark", "programs", "vm", "*.jn"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) == 0 {
		tb.Skip("benchmark/programs/vm not present")
	}
	sort.Strings(files)
	srcs := make([]string, len(files))
	for i, f := range files {
		srcs[i] = readFile(tb, f)
	}
	return srcs
}

// loadVMSet is the ledger's load: Figure 3's word count over lines, then
// one LoadProgram per source of the set.
func loadVMSet(tb testing.TB, lines, srcs []string, opts ...interp.Option) {
	in, err := wordcount.NewInterpreter(lines, wordcount.Light, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	for _, src := range srcs {
		if err := in.LoadProgram(src); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchLoadProgram(b *testing.B, opts ...interp.Option) {
	srcs := vmSetSources(b)
	lines := wordcount.GenerateLines(100, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadVMSet(b, lines, srcs, opts...)
	}
}

func BenchmarkLoadProgram_Tree(b *testing.B) { benchLoadProgram(b) }
func BenchmarkLoadProgram_VM(b *testing.B)   { benchLoadProgram(b, interp.WithVM()) }
func BenchmarkLoadProgram_Opt(b *testing.B)  { benchLoadProgram(b, interp.WithOptimize()) }
