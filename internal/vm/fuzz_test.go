//go:debug randseednop=0

package vm_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"junicon/internal/compile"
	"junicon/internal/interp"
	"junicon/internal/semtest"
	"junicon/internal/value"
)

// fuzzPrelude gives fuzzed expressions some procedures to call: those
// semtest.StatefulExpr's expressions call, gen among them, and double.
const fuzzPrelude = semtest.StatefulPrelude + `
def double(x) { return x * 2; }
`

// FuzzCompiledSemantics is the compiler's property test: any expression the
// tree walk accepts must behave identically under compiled execution — same
// values in the same order, failing at the same point, raising the same
// error if one is raised. Expressions the parser rejects or that error at
// load are skipped (they never reach the vm), and so are those whose
// reference run, in a process of its own, gives no result within
// referenceBound (a search that never yields). Two differences are
// forgiven, each only where it shows: the tree walk raising on building a
// form the vm raises on only when control reaches it, and ?x beside a
// pipe. The seed corpus mixes the semtest grammars — RandomExpr's
// operators and StatefulExpr's assignments, scans and co-expressions,
// whose stores and temporaries are what the pass's liveness rules delete
// and share — with the repo's example programs' idioms; seeds are finite
// so `go test` stays fast, and unbounded exploration only happens under an
// explicit -fuzz run.
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
	// StatefulExpr's seeds come last, so the seeds before them keep the
	// numbers (seed#N) they had before these were added.
	sg := rand.New(rand.NewSource(17))
	for i := 0; i < 12; i++ {
		f.Add(semtest.StatefulExpr(sg, 2))
	}
	f.Fuzz(func(t *testing.T, expr string) {
		if len(expr) > 512 {
			t.Skip("oversized input")
		}
		ref, skip, err := referenceLane(expr)
		if err != nil {
			t.Fatalf("the reference lane crashed on %q: %v", expr, err)
		}
		if skip != "" {
			t.Skip(skip)
		}
		rand.Seed(fuzzRandSeed)
		got, err := semtest.Sequential(fuzzCase(expr), interp.WithVM())
		if err != nil {
			t.Fatalf("compiled lane errored where reference did not: %v", err)
		}
		if got.Equal(ref) {
			return
		}
		raises, racing := holds(expr)
		switch {
		case ref.Failed && raises[ref.Err] && len(ref.Images) <= len(got.Images) &&
			slices.Equal(ref.Images, got.Images[:len(ref.Images)]):
			// The vm gave every value the tree walk did, and went on.
			t.Skip("the tree walk raised building a form the vm raises only on reaching it")
		case racing:
			t.Skip("a producer thread and its consumer draw on one random stream in no fixed order")
		}
		t.Fatalf("compiled diverged on %q:\nref = %s\ngot = %s", expr, ref, got)
	})
}

// fuzzRandSeed seeds the random stream before each lane, so ?x draws the
// same values on both (go:debug randseednop=0 keeps rand.Seed working).
const fuzzRandSeed = 17

func fuzzCase(expr string) semtest.Case {
	return semtest.Case{Name: "fuzz", Program: fuzzPrelude, Expr: expr, Max: 100}
}

// referenceArg, as the test binary's one argument, makes it the reference
// lane's process (see TestMain).
const referenceArg = "fuzz-reference-lane"

// referenceBound is how long the reference lane may run. A search that
// never yields, such as ((|5)(-7)), runs until its process is killed.
const referenceBound = 2 * time.Second

// referenceOutcome is what the reference lane's process writes.
type referenceOutcome struct {
	Ref      semtest.Result
	Rejected string // the parser or the load refused the input
}

// TestMain serves the reference lane when the binary runs with
// referenceArg: it reads an expression on stdin, runs it on the tree walk
// and writes a referenceOutcome on stdout.
func TestMain(m *testing.M) {
	if len(os.Args) != 2 || os.Args[1] != referenceArg {
		os.Exit(m.Run())
	}
	expr, err := io.ReadAll(os.Stdin)
	if err != nil {
		os.Exit(2)
	}
	rand.Seed(fuzzRandSeed)
	var o referenceOutcome
	if o.Ref, err = semtest.Sequential(fuzzCase(string(expr))); err != nil {
		o.Rejected = err.Error()
	}
	if json.NewEncoder(os.Stdout).Encode(o) != nil {
		os.Exit(2)
	}
}

// referenceLane runs expr on the tree walk in a process of its own, killed
// after referenceBound, so a search that never ends leaves nothing behind.
// skip says why there is nothing to compare: the input was rejected, or
// gave no result within the bound. err is a crash: a panic the tree walk
// does not turn into a runtime error.
func referenceLane(expr string) (ref semtest.Result, skip string, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), referenceBound)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], referenceArg)
	cmd.Stdin = strings.NewReader(expr)
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return ref, fmt.Sprintf("no result from the reference lane within %v", referenceBound), nil
	}
	if exit, ok := err.(*exec.ExitError); ok {
		return ref, "", fmt.Errorf("%v\n%s", err, exit.Stderr)
	}
	var o referenceOutcome
	if err == nil {
		err = json.Unmarshal(out, &o)
	}
	if o.Rejected != "" {
		return ref, "rejected by the reference lane: " + o.Rejected, nil
	}
	return o.Ref, "", err
}

// holds reads expr's code, nested bodies included: raises holds the error
// each raise form gives, which the tree walk raises when it builds the
// form and the vm only when control reaches it ("" ? [any(&digits) % &A]
// raises on the tree walk alone); racing reports a ?x beside a pipe,
// whose producer thread draws in no fixed order against its consumer.
func holds(expr string) (raises map[string]bool, racing bool) {
	raises = map[string]bool{}
	in := interp.New(interp.WithVM())
	if in.LoadProgram(fuzzPrelude) != nil {
		return raises, false
	}
	m, err := in.ExprMachine(expr)
	if err != nil {
		return raises, false
	}
	var random, pipe bool
	var walk func(code *compile.Code)
	walk = func(code *compile.Code) {
		for _, ins := range code.Instrs {
			switch {
			case ins.Op == compile.OpRaise:
				e := value.RuntimeError{Code: int(ins.A), Message: string(code.Consts[ins.C].(value.String))}
				raises[e.Error()] = true
			case ins.Op == compile.OpRandom:
				random = true
			case ins.Op == compile.OpCreate && (ins.C > 0 || ins.C == compile.PipeDefault):
				pipe = true
			}
		}
		for _, sub := range code.Subs {
			walk(sub)
		}
	}
	walk(m.Code())
	return raises, random && pipe
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
