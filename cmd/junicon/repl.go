package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"junicon"
	"junicon/internal/inspect"
	"junicon/internal/vm"
)

// repl is the interactive mode of the harness — the paper's Junicon
// "realizes both an interactive extension ... as well as a translator"
// (§1). Declarations (def/procedure/record/global/class) are loaded;
// anything else evaluates as an expression and prints its result sequence
// (capped, since expressions may be infinite generators).
//
// Multi-line input is detected by unbalanced grouping delimiters — the
// same trick the metaparser uses to recognize complete statements.
func repl(in *junicon.Interp, input io.Reader, out io.Writer, prompt bool) {
	const maxResults = 100
	scanner := bufio.NewScanner(input)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var pending, history strings.Builder
	if prompt {
		fmt.Fprintln(out, "junicon — concurrent generators (:quit to exit, :help for help)")
	}
	for {
		if prompt {
			if pending.Len() == 0 {
				fmt.Fprint(out, "]=> ")
			} else {
				fmt.Fprint(out, "... ")
			}
		}
		if !scanner.Scan() {
			return
		}
		line := scanner.Text()
		if pending.Len() == 0 {
			switch strings.TrimSpace(line) {
			case "":
				continue
			case ":quit", ":q":
				return
			case ":help":
				fmt.Fprintln(out, "enter an expression to evaluate it (first", maxResults, "results shown),")
				fmt.Fprintln(out, "or a declaration (def/procedure/record/global/class) to load it.")
				fmt.Fprintln(out, ":facts dumps the interprocedural generator facts of loaded declarations.")
				fmt.Fprintln(out, ":dis <expr> prints an expression's bytecode listing.")
				fmt.Fprintln(out, ":streams shows the live stream topology (pipes, pools, remotes; enables inspection).")
				fmt.Fprintln(out, ":prof shows the VM execution profile (the first :prof enables profiling).")
				fmt.Fprintln(out, ":snap <file> <expr> prints", maxResults, "results, then checkpoints the suspended generator.")
				fmt.Fprintln(out, ":resume <file> restores a checkpointed generator and continues its sequence.")
				fmt.Fprintln(out, ":help prints this text; :quit (or :q) leaves.")
				continue
			case ":facts":
				printFacts(in, history.String(), out)
				continue
			case ":streams":
				printStreams(out)
				continue
			case ":prof":
				printProf(out)
				continue
			}
			if t := strings.TrimSpace(line); t == ":dis" || strings.HasPrefix(t, ":dis ") {
				rest := strings.TrimSpace(strings.TrimPrefix(t, ":dis"))
				if rest == "" {
					fmt.Fprintln(out, "usage: :dis <expr>")
				} else if err := in.DisassembleExpr(rest, out); err != nil {
					fmt.Fprintln(out, "error:", err)
				}
				continue
			}
			if t := strings.TrimSpace(line); t == ":snap" || strings.HasPrefix(t, ":snap ") {
				fields := strings.Fields(strings.TrimPrefix(t, ":snap"))
				if len(fields) < 2 {
					fmt.Fprintln(out, "usage: :snap <file> <expr>")
				} else if err := snapshotExpr(in, history.String(), strings.Join(fields[1:], " "),
					fields[0], maxResults, out); err != nil {
					fmt.Fprintln(out, "error:", err)
				}
				continue
			}
			if t := strings.TrimSpace(line); t == ":resume" || strings.HasPrefix(t, ":resume ") {
				file := strings.TrimSpace(strings.TrimPrefix(t, ":resume"))
				if file == "" {
					fmt.Fprintln(out, "usage: :resume <file>")
				} else if data, err := os.ReadFile(file); err != nil {
					fmt.Fprintln(out, "error:", err)
				} else if err := resumeInto(in, data, maxResults, out); err != nil {
					// Restoring loads the snapshot's declarations into THIS
					// session, so cross-session :snap → :resume just works.
					fmt.Fprintln(out, "error:", err)
				}
				continue
			}
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		src := pending.String()
		if !balanced(src) {
			continue // keep reading: grouping delimiters still open
		}
		pending.Reset()
		evalLine(in, src, out, maxResults, &history)
	}
}

// printStreams renders the live stream topology. The first call enables
// inspection, so streams started afterwards register; a session that has
// not run any transported generators yet shows an empty table.
func printStreams(out io.Writer) {
	if !inspect.Enable() {
		fmt.Fprintln(out, "-- inspection enabled; streams started from now on are tracked")
	}
	rows := inspect.Snapshot()
	if len(rows) == 0 {
		fmt.Fprintln(out, "-- no streams")
		return
	}
	fmt.Fprintf(out, "%-18s %-14s %-12s %10s %10s %6s  %s\n",
		"STREAM", "KIND", "STATE", "PRODUCED", "CONSUMED", "DEPTH", "LABEL")
	for _, r := range rows {
		id := r.ID
		if !r.Live {
			id = "(" + id + ")"
		}
		label := r.Label
		if r.ConsumesFrom != "" {
			label += "  <- " + r.ConsumesFrom
		}
		if r.Diagnosis != "" {
			label += "  [" + r.Diagnosis + "]"
		}
		fmt.Fprintf(out, "%-18s %-14s %-12s %10d %10d %6d  %s\n",
			id, r.Kind, r.State, r.Produced, r.Consumed, r.Depth, label)
	}
	for _, d := range inspect.Diagnoses() {
		fmt.Fprintf(out, "!! %s %s: %s (idle %dms)\n", d.Kind, d.Stream, d.Cause, d.IdleNs/1e6)
	}
}

// printProf renders the VM execution profile. The first call enables
// profiling.
func printProf(out io.Writer) {
	if !vm.ProfilingOn() {
		vm.EnableProfiling()
		fmt.Fprintln(out, "-- profiling enabled; expressions run from now on are profiled")
		return
	}
	vm.WriteText(out)
}

// printFacts recomputes and dumps the interprocedural fact table over
// every declaration this session has loaded — effect summaries, yield
// bounds, restartability — the analysis the VM provisions |> and direct
// calls from.
func printFacts(in *junicon.Interp, loaded string, out io.Writer) {
	if strings.TrimSpace(loaded) == "" {
		fmt.Fprintln(out, "-- no declarations loaded")
		return
	}
	known := func(name string) bool {
		_, ok := in.Global(name)
		return ok
	}
	_, facts, err := junicon.VetFacts(loaded, known)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	facts.Fdump(out)
}

// evalLine loads declarations or evaluates an expression, printing
// analyzer diagnostics first. Diagnostics never block the REPL — even an
// error-severity finding still evaluates, so the user sees the runtime
// behaviour it predicts.
func evalLine(in *junicon.Interp, src string, out io.Writer, maxResults int, history *strings.Builder) {
	trimmed := strings.TrimSpace(src)
	first := strings.SplitN(trimmed, " ", 2)[0]
	switch first {
	case "def", "procedure", "method", "record", "global", "class", "local", "var", "static":
		warn(in, trimmed, out, false)
		if err := in.LoadProgram(trimmed); err != nil {
			fmt.Fprintln(out, "error:", err)
		} else if history != nil {
			history.WriteString(trimmed)
			history.WriteString("\n")
		}
		return
	}
	warn(in, trimmed, out, true)
	vs, err := in.Eval(trimmed, maxResults)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	if len(vs) == 0 {
		fmt.Fprintln(out, "-- fails")
		return
	}
	for _, v := range vs {
		fmt.Fprintln(out, junicon.Image(v))
	}
	if len(vs) == maxResults {
		fmt.Fprintf(out, "-- (stopped after %d results)\n", maxResults)
	}
}

// warn prints analyzer diagnostics for one REPL input. Names already
// defined in the interpreter (previous definitions, host bindings) are
// known, so cross-line references do not warn. Parse failures are silent
// here — evaluation reports them properly.
func warn(in *junicon.Interp, src string, out io.Writer, isExpr bool) {
	known := func(name string) bool {
		_, ok := in.Global(name)
		return ok
	}
	var diags []junicon.Diag
	var err error
	if isExpr {
		diags, err = junicon.VetExpr(src, known)
	} else {
		diags, err = junicon.Vet(src, known)
	}
	if err != nil {
		return
	}
	for _, d := range diags {
		fmt.Fprintln(out, "vet:", d)
	}
}

// balanced reports whether grouping delimiters in src are closed, skipping
// string/cset literals and comments.
func balanced(src string) bool {
	depth := 0
	inStr := byte(0)
	for i := 0; i < len(src); i++ {
		c := src[i]
		if inStr != 0 {
			if c == '\\' {
				i++
			} else if c == inStr || c == '\n' {
				inStr = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			inStr = c
		case '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		}
	}
	return depth <= 0
}

// runREPL wires the REPL to stdin, prompting only when interactive-looking.
func runREPL(in *junicon.Interp) {
	stat, err := os.Stdin.Stat()
	prompt := err == nil && (stat.Mode()&os.ModeCharDevice) != 0
	repl(in, os.Stdin, os.Stdout, prompt)
}
