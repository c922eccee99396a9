//go:build !regen

package wordcount

import "testing"

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
