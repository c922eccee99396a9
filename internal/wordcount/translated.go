//go:build !regen

package wordcount

import (
	"junicon/internal/value"
	"junicon/internal/wordcount/fig3"
)

// The translated path: Figure 3's program and its sequential driver
// (Figure3Source followed by SequentialExpr) migrated to Go by the
// translator (§5) into package fig3, committed and kept fresh by
// TestFigure3TranslationIsFresh. The host binds the corpus and the hash
// stages, then drains the translated driver — Figure 3's embedding with
// the interpreter taken out. The regen build tag leaves this file out, so
// the freshness test can rewrite fig3 when it no longer compiles.

// BindTranslated binds the translated Figure 3 program to a corpus and the
// host stages of weight w, as NewInterpreter binds the interpreted one.
// The translated program is one package: the last binding wins.
func BindTranslated(lines []string, w Weight) {
	fig3.Natives["wordToNumber"] = wordToNumberProc(w)
	fig3.Natives["hashNumber"] = hashNumberProc(w)
	fig3.Natives["split"] = value.NewNative("split", splitNative)
	fig3.Global("lines").Set(corpusList(lines))
}

// TranslatedSum is SequentialExpr on the translated program: it drains
// the driver's state machine and sums the reals, as InterpSum does over
// the interpreted expression.
func TranslatedSum() float64 {
	total := 0.0
	g := fig3.Statements[0].Call()
	for v, ok := g.Next(); ok; v, ok = g.Next() {
		if r, isReal := value.ToReal(value.Deref(v)); isReal {
			total += float64(r)
		}
	}
	return total
}
