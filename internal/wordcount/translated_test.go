package wordcount

import (
	"flag"
	"io"
	"os"
	"testing"

	"junicon/internal/translate"
)

// figure3Program is what fig3 translates: Figure 3's program, then the
// sequential driver as its one top-level statement.
const figure3Program = Figure3Source + SequentialExpr + "\n"

// figure3Options are the translator options fig3 is generated with: lines
// is bound by the host.
var figure3Options = translate.Options{
	Package:     "fig3",
	Diagnostics: io.Discard,
	Known:       func(name string) bool { return name == "lines" },
}

var update = flag.Bool("update", false, "rewrite fig3/fig3.go from figure3Program")

// TestFigure3TranslationIsFresh regenerates fig3/fig3.go from
// figure3Program and requires the committed file to match (-update
// rewrites it).
func TestFigure3TranslationIsFresh(t *testing.T) {
	out, err := translate.TranslateProgram(figure3Program, figure3Options)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if *update {
		if err := os.WriteFile("fig3/fig3.go", []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile("fig3/fig3.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != out {
		t.Fatal("fig3/fig3.go is stale; regenerate with:\n  go test -tags regen ./internal/wordcount -run TestFigure3TranslationIsFresh -update")
	}
}
