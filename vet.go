package junicon

import (
	"fmt"
	"io"

	"junicon/internal/analyze"
	"junicon/internal/meta"
	"junicon/internal/parser"
)

// Static checking: the analyzer of internal/analyze exposed over source
// text. Vet runs the same machinery that gates Translate and warns in the
// REPL, so embedders can check programs before loading them.

// Diag is one structured analyzer diagnostic.
type Diag = analyze.Diag

// DiagSeverity classifies a diagnostic as warning or error.
type DiagSeverity = analyze.Severity

// Diagnostic severities.
const (
	SeverityWarning = analyze.Warning
	SeverityError   = analyze.Error
)

// Vet parses a Junicon program and returns its static diagnostics sorted
// by position. known (may be nil) reports names the host binds before the
// program runs, suppressing never-assigned warnings for them.
func Vet(src string, known func(name string) bool) ([]Diag, error) {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	return analyze.Program(prog, analyze.Options{Known: known}), nil
}

// Facts is the interprocedural fact table the analyzer computes alongside
// its diagnostics: per-procedure effect summaries and yield-count bounds.
// The same table provisions the evaluators' |> sites and picks the VM's
// direct calls; Fdump renders it for inspection.
type Facts = analyze.Facts

// VetFacts is Vet plus the fact table: it parses a Junicon program and
// returns both the static diagnostics and the interprocedural generator
// facts the evaluators would act on (junicon -vet -facts).
func VetFacts(src string, known func(name string) bool) ([]Diag, *Facts, error) {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return nil, nil, err
	}
	diags, facts := analyze.ProgramFacts(prog, analyze.Options{Known: known})
	return diags, facts, nil
}

// VetExpr analyzes a standalone expression (the REPL's unit of input).
func VetExpr(expr string, known func(name string) bool) ([]Diag, error) {
	n, err := parser.ParseExpression(expr)
	if err != nil {
		return nil, err
	}
	return analyze.Expr(n, analyze.Options{Known: known}), nil
}

// VetMixed analyzes every junicon region of a mixed-language source.
// Diagnostic positions are shifted to whole-file line numbers.
func VetMixed(src string, known func(name string) bool) ([]Diag, error) {
	segs, err := meta.Parse(src)
	if err != nil {
		return nil, err
	}
	var out []Diag
	for _, r := range meta.Regions(segs) {
		if !isJunicon(r) {
			continue
		}
		prog, err := parser.ParseProgram(r.Raw)
		if err != nil {
			return out, fmt.Errorf("region at line %d: %w", r.Line, err)
		}
		for _, d := range analyze.Program(prog, analyze.Options{Known: known}) {
			// Raw begins on the open-tag line, so region line 1 is file
			// line r.Line.
			d.Pos.Line += r.Line - 1
			out = append(out, d)
		}
	}
	return out, nil
}

// HasVetErrors reports whether any diagnostic has error severity.
func HasVetErrors(diags []Diag) bool { return analyze.HasErrors(diags) }

// FprintDiags writes diagnostics one per line, prefixed with path when
// non-empty.
func FprintDiags(w io.Writer, path string, diags []Diag) {
	analyze.Fprint(w, path, 0, diags)
}
