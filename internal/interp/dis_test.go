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

// TestDisassemblyCoversCompiledUnits asserts the listing holds the code of
// every unit, a statement's and one with a form that raises included.
func TestDisassemblyCoversCompiledUnits(t *testing.T) {
	in := New(WithOutput(io.Discard), WithVM())
	var b strings.Builder
	err := in.DisassembleProgram(`
def ok(n) { return n + 1; }
def later() { break; }
write(ok(1))
`, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"-- procedure ok\nunit ok", "-- procedure later\nunit later", "raise", "-- statement 1\nunit (expression)"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing lacks %q:\n%s", want, out)
		}
	}
}
