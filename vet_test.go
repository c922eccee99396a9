package junicon_test

import (
	"bytes"
	"flag"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"junicon"
)

var update = flag.Bool("update", false, "rewrite testdata/**/*.facts.golden, api.txt and the falls in testdata/costs.golden from the current code (review the diff by hand)")

const badActivation = `
def f() {
  x := 5;
  return @x;
}
`

// TestVetReportsCalculusErrors: the public Vet surface finds code that is
// statically wrong under the calculus.
func TestVetReportsCalculusErrors(t *testing.T) {
	diags, err := junicon.Vet(badActivation, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !junicon.HasVetErrors(diags) {
		t.Fatalf("expected an error diagnostic, got %v", diags)
	}
	found := false
	for _, d := range diags {
		if d.Code == "JV005" && d.Severity == junicon.SeverityError {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected JV005, got %v", diags)
	}
}

// TestVetKnownSuppressesHostNames: names the host binds (embedding
// scenarios, REPL globals) do not warn as never-assigned.
func TestVetKnownSuppressesHostNames(t *testing.T) {
	src := `def g() { suspend !corpus; }`
	diags, err := junicon.Vet(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Code != "JV001" {
		t.Fatalf("expected one JV001 without known names, got %v", diags)
	}
	known := func(name string) bool { return name == "corpus" }
	diags, err = junicon.Vet(src, known)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics with corpus known, got %v", diags)
	}
}

// TestVetMixedOffsetsLines: diagnostics from an embedded region carry
// whole-file line numbers.
func TestVetMixedOffsetsLines(t *testing.T) {
	mixed := "package host\n" + // line 1
		"\n" + // line 2
		"@<script lang=\"junicon\">\n" + // line 3
		"def f() { return @&null; }\n" + // line 4
		"@</script>\n"
	diags, err := junicon.VetMixed(mixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("expected a diagnostic from the embedded region")
	}
	if diags[0].Pos.Line != 4 {
		t.Fatalf("expected whole-file line 4, got %d (%s)", diags[0].Pos.Line, diags[0])
	}
}

// TestCorpusVetClean is the false-positive gate for the analyzer: every
// shipped Junicon program — the testdata/ fixtures the tests and examples
// load, and the programs embedded as raw string literals in examples/ —
// must produce zero diagnostics at default severity. A new check that
// fires on working corpus code is a false positive by definition.
func TestCorpusVetClean(t *testing.T) {
	// Host-bound names: examples register natives and globals before
	// loading, so name-resolution warnings (JV001) don't apply here — the
	// corpus gate is about the structural and flow checks.
	known := func(string) bool { return true }
	vetOne := func(t *testing.T, label, src string) {
		t.Helper()
		var diags []junicon.Diag
		var err error
		if strings.Contains(src, "@<") {
			diags, err = junicon.VetMixed(src, known)
		} else {
			diags, err = junicon.Vet(src, known)
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, d := range diags {
			t.Errorf("%s: corpus program not clean: %s", label, d)
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.jn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata corpus: %v", err)
	}
	for _, file := range files {
		vetOne(t, file, readFile(t, file))
	}
	// Raw string literals in the examples: anything that parses as a
	// Junicon program is corpus; literals in other languages (host text,
	// format strings) fail to parse and are skipped.
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	vetted := 0
	for _, file := range mains {
		fset := token.NewFileSet()
		parsed, err := goparser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		ast.Inspect(parsed, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
				return true
			}
			src := strings.Trim(lit.Value, "`")
			if strings.Contains(src, "@<") {
				vetted++
				vetOne(t, fset.Position(lit.Pos()).String(), src)
				return true
			}
			if _, err := junicon.Vet(src, known); err != nil {
				return true // not a Junicon program
			}
			vetted++
			vetOne(t, fset.Position(lit.Pos()).String(), src)
			return true
		})
	}
	if vetted < 5 {
		t.Fatalf("only %d embedded example programs vetted; extraction broke", vetted)
	}
}

// TestTranslateGateAbortsOnErrors: the pre-translation gate refuses to
// emit code for programs with error-level findings, and routes warnings
// to the configured writer.
func TestTranslateGateAbortsOnErrors(t *testing.T) {
	var warnings strings.Builder
	_, err := junicon.Translate(badActivation, junicon.TranslateOptions{Diagnostics: &warnings})
	if err == nil || !strings.Contains(err.Error(), "JV005") {
		t.Fatalf("expected JV005 gate error, got %v", err)
	}

	warnings.Reset()
	out, err := junicon.Translate(`def g() { return maybe; }`, junicon.TranslateOptions{Diagnostics: &warnings})
	if err != nil {
		t.Fatalf("warnings must not abort translation: %v", err)
	}
	if !strings.Contains(warnings.String(), "JV001") {
		t.Fatalf("warning not routed to Diagnostics: %q", warnings.String())
	}
	if !strings.Contains(out, "package translated") {
		t.Fatalf("no code emitted:\n%s", out)
	}

	// NoVet bypasses the gate entirely.
	warnings.Reset()
	if _, err := junicon.Translate(badActivation, junicon.TranslateOptions{NoVet: true}); err != nil {
		t.Fatalf("NoVet should bypass the gate: %v", err)
	}
	if warnings.String() != "" {
		t.Fatalf("NoVet still produced diagnostics: %q", warnings.String())
	}
}

// TestFactGoldens pins what the fact engine concludes about every shipped
// corpus program — testdata/*.jn and the ledger's benchmark/programs/**,
// read in place — as the junicon -vet -facts dump, one golden per program
// under testdata/, so a change to the engine is reviewed as a diff of its
// conclusions. Regenerate with -update.
func TestFactGoldens(t *testing.T) {
	var files []string
	for _, pattern := range []string{"testdata/*.jn", "benchmark/programs/*/*.jn"} {
		found, err := filepath.Glob(filepath.FromSlash(pattern))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, found...)
	}
	if len(files) < 6 {
		t.Fatalf("found only %d corpus programs", len(files))
	}
	for _, file := range files {
		t.Run(filepath.ToSlash(file), func(t *testing.T) {
			_, facts, err := junicon.VetFacts(readFile(t, file), nil)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			facts.Fdump(&got)
			// testdata/x.jn → testdata/x.facts.golden; a ledger program's
			// golden mirrors its path under testdata/.
			rel := strings.TrimPrefix(filepath.ToSlash(file), "testdata/")
			golden := filepath.Join("testdata", filepath.FromSlash(strings.TrimSuffix(rel, ".jn")+".facts.golden"))
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run go test -run TestFactGoldens -update .)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("facts changed (go test -run TestFactGoldens -update . and review the diff)\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
			}
		})
	}
}
