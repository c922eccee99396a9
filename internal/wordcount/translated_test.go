package wordcount

import (
	"flag"
	"io"
	"os"
	"testing"

	"junicon/internal/translate"
)

// figure3Options are the translator options fig3 is generated with: lines
// is bound by the host.
var figure3Options = translate.Options{
	Package:     "fig3",
	Diagnostics: io.Discard,
	Known:       func(name string) bool { return name == "lines" },
}

var update = flag.Bool("update", false, "rewrite fig3/fig3.go from Figure3Program")

// TestFigure3TranslationIsFresh regenerates fig3/fig3.go from
// Figure3Program and requires the committed file to match (-update
// rewrites it).
func TestFigure3TranslationIsFresh(t *testing.T) {
	out, err := translate.TranslateProgram(Figure3Program, figure3Options)
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
		t.Fatal("fig3/fig3.go is stale; regenerate with:\n  go test ./internal/wordcount -run TestFigure3TranslationIsFresh -update")
	}
}

// TestTranslatedAgreesWithInterpreted pins the translated Figure 3 to the
// interpreted one: the same sum over the same corpus.
func TestTranslatedAgreesWithInterpreted(t *testing.T) {
	for _, w := range []Weight{Light, Heavy} {
		want, err := InterpretedSequential(testLines, w)
		if err != nil {
			t.Fatal(err)
		}
		BindTranslated(testLines, w)
		if got := TranslatedSum(); !approxEqual(got, want) {
			t.Fatalf("weight %v: translated %v, interpreted %v", w, got, want)
		}
	}
}
