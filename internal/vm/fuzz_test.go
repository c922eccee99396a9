package vm_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"junicon/internal/interp"
	"junicon/internal/semtest"
)

// fuzzPrelude gives fuzzed expressions some procedures to call.
const fuzzPrelude = `
def gen(a, b) { suspend a to b; }
def double(x) { return x * 2; }
`

// FuzzCompiledSemantics is the compiler's property test: any expression the
// tree walk accepts must behave identically under compiled execution — same
// values in the same order, failing at the same point, raising the same
// error if one is raised. Expressions the parser rejects or that error at
// load are skipped (they never reach the vm). The seed corpus mixes the
// semtest grammars with the repo's example programs' idioms; seeds are
// finite so `go test` stays fast, and unbounded exploration only happens
// under an explicit -fuzz run (where an adversarial infinite generator can
// hang an iteration — the per-case Max bound caps every drain regardless).
func FuzzCompiledSemantics(f *testing.F) {
	for _, seed := range []string{
		"1 to 10",
		"(1 to 3) & (4 | 5)",
		"(|(1 to 2)) \\ 9",
		"![1, 2, 3] * (1 | 10)",
		"gen(1, 5) + double(2)",
		`"a" + 1`,
		"(1 to 5) > 3",
		"if 1 > 2 then 9 else (5 to 7)",
		"case (1 to 4) of { 2: \"two\"; default: \"other\" }",
		"{ x := 3; x +:= (1 to 2); x }",
		"not (1 to 0)",
		"*\"abc\" to *\"abcdef\"",
	} {
		f.Add(seed)
	}
	eg := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		f.Add(semtest.RandomExpr(eg, 3))
	}
	// Expression lines mined from the shipped example programs keep the
	// corpus anchored to real idioms, not just the random grammar's.
	for _, line := range exampleLines(f) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		if len(expr) > 512 {
			t.Skip("oversized input")
		}
		c := semtest.Case{Name: "fuzz", Program: fuzzPrelude, Expr: expr, Max: 100}
		ref, err := semtest.Sequential(c)
		if err != nil {
			t.Skip("rejected by the reference lane")
		}
		got, err := semtest.Sequential(c, interp.WithVM())
		if err != nil {
			t.Fatalf("compiled lane errored where reference did not: %v", err)
		}
		if !got.Equal(ref) {
			t.Fatalf("compiled diverged on %q:\nref = %s\ngot = %s", expr, ref, got)
		}
	})
}

// exampleLines extracts candidate expression snippets from testdata
// programs: single-line suspend/return bodies with the keyword stripped.
func exampleLines(f *testing.F) []string {
	var out []string
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.jn"))
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), ";"))
			for _, kw := range []string{"suspend ", "return ", "every "} {
				if rest, ok := strings.CutPrefix(line, kw); ok && rest != "" {
					out = append(out, rest)
				}
			}
		}
	}
	if len(out) == 0 {
		f.Log("no testdata expression lines found")
	}
	return out
}
