package interp

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateDis = flag.Bool("update-dis", false, "rewrite disassembly golden files from current compiler output")

// TestDisassemblyGolden pins the bytecode compiler's output shape over two
// real testdata programs: the listing (slot tables, resume points, symbolic
// operands) is the compiler's public face, and drift in it means the
// lowering changed. Regenerate with `go test ./internal/interp -run
// Disassembly -update-dis` after an intentional change.
func TestDisassemblyGolden(t *testing.T) {
	for _, name := range []string{"quickstart", "queens"} {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", "dis", name+".jn"))
			if err != nil {
				// Source fixtures live beside the goldens, copied from the
				// repo-level testdata so the listing stays hermetic.
				t.Fatalf("fixture: %v", err)
			}
			in := New(WithOutput(io.Discard), WithVM())
			var b strings.Builder
			if err := in.DisassembleProgram(string(src), &b); err != nil {
				t.Fatalf("disassemble: %v", err)
			}
			got := b.String()
			goldenPath := filepath.Join("testdata", "dis", name+".golden")
			if *updateDis {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("golden (run with -update-dis to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("disassembly drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestDisassemblyCoversCompiledUnits asserts the listing marks fallback
// units explicitly rather than omitting them.
func TestDisassemblyCoversCompiledUnits(t *testing.T) {
	in := New(WithOutput(io.Discard), WithVM())
	var b strings.Builder
	err := in.DisassembleProgram(`
def ok(n) { return n + 1; }
def later() { g := 1; local g; return g; }
global g
`, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "unit ok") {
		t.Errorf("compiled unit missing from listing:\n%s", out)
	}
	if !strings.Contains(out, "not compiled:") || !strings.Contains(out, "tree-walk fallback") {
		t.Errorf("fallback unit not marked in listing:\n%s", out)
	}
}
