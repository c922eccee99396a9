package main

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"junicon"
)

// TestMain runs the command itself when a test re-executes the test
// binary with JUNICON_RUN_MAIN set.
func TestMain(m *testing.M) {
	if os.Getenv("JUNICON_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBreakOutsideALoopIsAnError: break outside a loop is runtime error
// 106, at the REPL and from -e, where the command reports it on one line
// and exits 1 — not a Go panic.
func TestBreakOutsideALoopIsAnError(t *testing.T) {
	if out := runRepl(t, "break\nnext\n1\n"); !strings.Contains(out, "106: break outside a loop") ||
		!strings.Contains(out, "106: next outside a loop body") || !strings.Contains(out, "1\n") {
		t.Errorf("repl:\n%s", out)
	}
	cmd := exec.Command(os.Args[0], "-e", "break")
	cmd.Env = append(os.Environ(), "JUNICON_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || string(out) != "junicon: runtime error 106: break outside a loop\n" {
		t.Errorf("junicon -e break: %v\n%s", err, out)
	}
}

func runRepl(t *testing.T, input string) string {
	t.Helper()
	var out bytes.Buffer
	in := junicon.NewInterp(&out)
	repl(in, strings.NewReader(input), &out, false)
	return out.String()
}

func TestReplEvaluatesExpressions(t *testing.T) {
	out := runRepl(t, "1 + 2\n(1 to 3) * 10\n")
	for _, want := range []string{"3\n", "10\n", "20\n", "30\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestReplLoadsDeclarationsAndUsesThem(t *testing.T) {
	out := runRepl(t, "def sq(x) { return x*x; }\nsq(6)\n")
	if !strings.Contains(out, "36") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestReplMultiLineInput(t *testing.T) {
	out := runRepl(t, "def f(n) {\n  return n + 1;\n}\nf(4)\n")
	if !strings.Contains(out, "5") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestReplReportsFailureAndErrors(t *testing.T) {
	out := runRepl(t, "1 > 2\n1/0\n")
	if !strings.Contains(out, "-- fails") {
		t.Fatalf("failure marker missing:\n%s", out)
	}
	if !strings.Contains(out, "division by zero") {
		t.Fatalf("error missing:\n%s", out)
	}
}

func TestReplCapsInfiniteGenerators(t *testing.T) {
	out := runRepl(t, "seq(1)\n")
	if !strings.Contains(out, "stopped after") {
		t.Fatalf("cap marker missing:\n%s", out)
	}
}

func TestReplWarnsOnSuspiciousInput(t *testing.T) {
	out := runRepl(t, "write(neverSet)\n")
	if !strings.Contains(out, "JV001") {
		t.Fatalf("vet warning missing:\n%s", out)
	}
	// The input still evaluates: neverSet defaults to &null.
	if !strings.Contains(out, "&null") {
		t.Fatalf("evaluation suppressed:\n%s", out)
	}
}

func TestReplKnowsEarlierDefinitions(t *testing.T) {
	out := runRepl(t, "total := 10\ntotal + 5\n")
	if strings.Contains(out, "JV001") {
		t.Fatalf("earlier REPL global should be known:\n%s", out)
	}
	if !strings.Contains(out, "15") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestReplQuitCommand(t *testing.T) {
	out := runRepl(t, ":q\n99\n")
	if strings.Contains(out, "99") {
		t.Fatalf(":q did not stop the loop:\n%s", out)
	}
}

func TestReplHelp(t *testing.T) {
	out := runRepl(t, ":help\n")
	if !strings.Contains(out, "declaration") {
		t.Fatalf("help missing:\n%s", out)
	}
}

// TestReplCommandsMatchTheDocs: the REPL's commands are one set in three
// places. A command README names must be one repl.go handles (a case or
// comparison whose string is the command alone), one repl.go handles must
// be listed by :help, and one :help lists must be named in README, in
// backquotes.
func TestReplCommandsMatchTheDocs(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "repl.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	command := regexp.MustCompile(`^:[a-z]+ ?$`)
	handled := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && command.MatchString(s) {
				handled[strings.TrimSpace(s)] = true
			}
		}
		return true
	})
	named := func(text string, re *regexp.Regexp) map[string]bool {
		set := map[string]bool{}
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			set[m[1]] = true
		}
		return set
	}
	help := named(runRepl(t, ":help\n"), regexp.MustCompile(`(?:^|[\s(])(:[a-z]+)`))
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := named(string(data), regexp.MustCompile("`(:[a-z]+)"))
	for _, c := range []struct {
		what     string
		set, not map[string]bool
		where    string
	}{
		{"README names", readme, handled, "repl.go does not handle"},
		{"repl.go handles", handled, help, ":help does not list"},
		{":help lists", help, readme, "README does not name"},
	} {
		for cmd := range c.set {
			if !c.not[cmd] {
				t.Errorf("%s %s, which %s", c.what, cmd, c.where)
			}
		}
	}
	if len(handled) < 8 {
		t.Errorf("found %d commands in repl.go, want at least 8: %v", len(handled), handled)
	}
}

func TestBalanced(t *testing.T) {
	cases := map[string]bool{
		"f(x)":               true,
		"def f(x) {":         false,
		"def f(x) {\n}":      true,
		`"unclosed ( quote"`: true, // paren inside string ignored
		"'cset ) '":          true,
		"# comment ( only":   true,
		"[1, 2":              false,
		"{ [ ( ) ] }":        true,
	}
	for src, want := range cases {
		if got := balanced(src); got != want {
			t.Errorf("balanced(%q) = %v, want %v", src, got, want)
		}
	}
}
