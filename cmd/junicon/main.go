// Command junicon is the interpretive harness of §6: it loads Junicon
// programs — plain .jn files or mixed-language files with scoped
// annotations — and either interprets them or emits their Go translation.
//
// Usage:
//
//	junicon [flags] [file]
//
//	junicon prog.jn                  load program, run main() if defined
//	junicon -x 'expr' prog.jn        load program, evaluate expression
//	junicon -e '(1 to 3) * 2'        evaluate a standalone expression
//	junicon -emit -pkg gen prog.jn   emit the Go translation to stdout
//	junicon -vet prog.jn …           static checks only; exit 1 on errors
//	junicon -vet -Werror prog.jn     … treating warnings as errors
//	junicon -vet -facts prog.jn      … also dump interprocedural facts
//	junicon -dis prog.jn             print bytecode listings (also -dis -e 'expr')
//	junicon -xml 'expr'              print the parsed XML term form
//	junicon -trace=run.json prog.jn  write a telemetry trace of the run
//	junicon -metrics -e 'expr'       print runtime metrics after the run
//	junicon -profile=vm.pb.gz p.jn   write a pprof VM profile
//	junicon -snapshot s -n 3 -e 'e'  print 3 results, checkpoint the rest to s
//	junicon -resume s                restore the snapshot and keep iterating
//
// -trace records kernel/pipe/queue telemetry events and writes them when
// the program ends: Chrome trace_event JSON (chrome://tracing, Perfetto)
// if the file name ends in .json, JSONL otherwise. -itrace is the
// Icon-style procedure tracing (&trace) formerly spelled -trace.
//
// Programs, expressions and the REPL run compiled, every unit: bytecode
// in the vm package's resumable frames (compile refuses only an Env
// without a scan environment, DefineGlobal or native table, and the
// interpreter supplies all three). A form the tree walk raises on — an
// unknown keyword, break outside a loop — raises the same runtime error,
// reported on one line.
//
// Mixed-language files (any file containing @<script …> annotations) are
// fed through the metaparser first; every junicon region is loaded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"junicon"
	"junicon/internal/ast"
	"junicon/internal/parser"
	"junicon/internal/telemetry"
	"junicon/internal/vm"
)

func main() {
	var (
		expr      = flag.String("e", "", "evaluate a standalone expression and print its results")
		exec      = flag.String("x", "", "expression to evaluate after loading the file")
		emit      = flag.Bool("emit", false, "emit the Go translation instead of interpreting")
		pkg       = flag.String("pkg", "translated", "package name for -emit")
		xml       = flag.String("xml", "", "parse an expression and print its XML term form")
		maxRes    = flag.Int("n", 0, "maximum results to print per expression (0 = all)")
		itrace    = flag.Bool("itrace", false, "enable Icon-style procedure tracing (&trace)")
		traceFile = flag.String("trace", "", "write telemetry trace events to this file (.json = Chrome trace format, else JSONL)")
		metrics   = flag.Bool("metrics", false, "print runtime metrics to stderr when the program ends")
		vet       = flag.Bool("vet", false, "run static checks only; report diagnostics without executing")
		werror    = flag.Bool("Werror", false, "with -vet, treat warnings as errors")
		facts     = flag.Bool("facts", false, "with -vet, dump the interprocedural generator facts per file")
		dis       = flag.Bool("dis", false, "disassemble instead of running: print bytecode listings for a file (or -e expression)")
		profile   = flag.String("profile", "", "write a pprof-format VM execution profile to this file when the program ends")
		snapshot  = flag.String("snapshot", "", "with -e/-x: print -n results, then checkpoint the suspended generator to this file")
		resume    = flag.String("resume", "", "restore a generator from this snapshot file and continue printing its sequence")
	)
	flag.Parse()

	if *traceFile != "" {
		telemetry.StartTrace(telemetry.DefaultRingSize)
	}
	if *metrics {
		telemetry.SetMetrics(true)
	}
	if *profile != "" {
		vm.EnableProfiling()
	}
	flush = func() { flushTelemetry(*traceFile, *metrics, *profile) }
	defer flush()

	if *vet {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "junicon: -vet requires at least one file")
			os.Exit(2)
		}
		failed := false
		for _, path := range flag.Args() {
			if !vetFile(path, *werror, *facts) {
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	if *xml != "" {
		n, err := parser.ParseExpression(*xml)
		fail(err)
		fmt.Print(ast.ToXML(n))
		return
	}

	in := junicon.NewInterp(os.Stdout)
	if *itrace {
		in.EnableTrace(os.Stderr)
	}

	if *dis {
		switch {
		case *expr != "":
			fail(in.DisassembleExpr(*expr, os.Stdout))
		case flag.NArg() >= 1:
			srcBytes, err := os.ReadFile(flag.Arg(0))
			fail(err)
			fail(in.DisassembleProgram(string(srcBytes), os.Stdout))
		default:
			fmt.Fprintln(os.Stderr, "junicon: -dis requires a file or -e expression")
			os.Exit(2)
		}
		return
	}

	if *resume != "" {
		fail(resumeSnapshot(*resume, *maxRes, os.Stdout))
		return
	}

	if *expr != "" && flag.NArg() == 0 {
		if *snapshot != "" {
			fail(snapshotExpr(in, "", *expr, *snapshot, *maxRes, os.Stdout))
			return
		}
		evalPrint(in, *expr, *maxRes)
		return
	}

	if flag.NArg() < 1 {
		// No file, no -e: interactive mode (the paper's interactive
		// extension; §6).
		runREPL(in)
		return
	}
	path := flag.Arg(0)
	srcBytes, err := os.ReadFile(path)
	fail(err)
	src := string(srcBytes)
	mixed := strings.Contains(src, "@<")

	if *emit {
		var out string
		topts := junicon.TranslateOptions{Package: *pkg}
		if mixed {
			out, err = junicon.TranslateMixed(src, topts)
		} else {
			out, err = junicon.Translate(src, topts)
		}
		fail(err)
		fmt.Print(out)
		return
	}

	if mixed {
		fail(junicon.LoadMixed(in, src))
	} else {
		fail(in.LoadProgram(src))
	}

	switch {
	case *exec != "":
		if *snapshot != "" {
			fail(snapshotExpr(in, src, *exec, *snapshot, *maxRes, os.Stdout))
			return
		}
		evalPrint(in, *exec, *maxRes)
	case *expr != "":
		if *snapshot != "" {
			fail(snapshotExpr(in, src, *expr, *snapshot, *maxRes, os.Stdout))
			return
		}
		evalPrint(in, *expr, *maxRes)
	default:
		// Run main() if the program defines one.
		if _, ok := in.Global("main"); ok {
			_, _, err := in.EvalFirst("main()")
			fail(err)
		}
	}
}

// vetFile runs the static analyzer over one file (plain or mixed) and
// prints its diagnostics. With facts set it also dumps the interprocedural
// fact table to stdout. It returns false when the file should fail the
// check: parse failure, an error-severity diagnostic, or — under -Werror —
// any diagnostic at all.
func vetFile(path string, werror, facts bool) bool {
	srcBytes, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "junicon:", err)
		return false
	}
	src := string(srcBytes)
	var diags []junicon.Diag
	if strings.Contains(src, "@<") {
		diags, err = junicon.VetMixed(src, nil)
	} else if facts {
		var table *junicon.Facts
		diags, table, err = junicon.VetFacts(src, nil)
		if err == nil {
			fmt.Printf("# %s\n", path)
			table.Fdump(os.Stdout)
		}
	} else {
		diags, err = junicon.Vet(src, nil)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		return false
	}
	junicon.FprintDiags(os.Stderr, path, diags)
	if werror {
		return len(diags) == 0
	}
	return !junicon.HasVetErrors(diags)
}

func evalPrint(in *junicon.Interp, expr string, max int) {
	vs, err := in.Eval(expr, max)
	fail(err)
	for _, v := range vs {
		fmt.Println(junicon.Image(v))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "junicon:", err)
		flush()
		os.Exit(1)
	}
}

// flush writes pending telemetry output; fail() routes through it so
// -trace/-metrics survive error exits. A no-op until main installs it.
var flush = func() {}

// flushTelemetry writes the buffered trace to traceFile (Chrome format
// for .json, JSONL otherwise), with metrics on a metrics snapshot to
// stderr, and with -profile the accumulated VM profile in pprof format.
func flushTelemetry(traceFile string, metrics bool, profile string) {
	if traceFile != "" {
		evs := telemetry.Tag("junicon", telemetry.DrainTrace())
		f, err := os.Create(traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "junicon: trace:", err)
		} else {
			if strings.HasSuffix(traceFile, ".json") {
				err = telemetry.WriteChromeTrace(f, evs)
			} else {
				err = telemetry.WriteJSONL(f, evs)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "junicon: trace:", err)
			}
		}
	}
	if metrics {
		b, err := json.MarshalIndent(telemetry.Snapshot(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "junicon: metrics:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "%s\n", b)
	}
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "junicon: profile:", err)
			return
		}
		err = vm.WritePprof(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "junicon: profile:", err)
		}
	}
}
