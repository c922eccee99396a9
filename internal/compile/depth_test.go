package compile

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"junicon/internal/ast"
	"junicon/internal/core"
	"junicon/internal/parser"
	"junicon/internal/transform"
	"junicon/internal/value"
)

// checkDepths reports the first pc of code (or of a unit nested in it)
// that control reaches at two operand-stack depths, following every edge
// but the re-entry of a resumable instruction by its own choice point:
// falling through (a yield or return resumes at the next pc), jumps, and
// the handlers of mark, fork and init.once, where failure or the guard
// restores the depth the instruction saw. Lowering keeps the depth static
// at every pc; a rewrite that deletes a push but not its pop, or merges
// across an instruction control enters, breaks that.
func checkDepths(code *Code) (bad int, name string) {
	depth := make([]int, len(code.Instrs)+1)
	for i := range depth {
		depth[i] = -1
	}
	work := []int{0}
	depth[0] = 0
	reach := func(pc, d int) bool {
		if depth[pc] < 0 {
			depth[pc] = d
			work = append(work, pc)
		}
		return depth[pc] == d
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := code.Instrs[pc]
		d := depth[pc]
		if to, ok := in.Enters(pc); ok && !reach(to, d+stackEffect(in)) {
			return to, code.Name
		}
		if in.Op.Falls() && !reach(pc+1, d+stackEffect(in)) {
			return pc + 1, code.Name
		}
	}
	for _, sub := range code.Subs {
		if pc, n := checkDepths(sub); pc >= 0 {
			return pc, n
		}
	}
	return -1, ""
}

// depthPrograms are small programs whose glue the pass rewrites next to
// an instruction control enters: the join after a conditional's or an
// alternation's branches.
var depthPrograms = []string{
	`def f() { every (1 | 2) & write(7); }`,
	`def f(c) { every ((c | 2) & 3) \ 1 do write(c); }`,
	`def f(c) { (if c then 1 else 2); return 3; }`,
	`def f(c) { x := (if c then 1 else 2) & 7; return x; }`,
	`def f(c, y) { if (if c then y else 2) < 3 then return 1; }`,
	`def f(c) { every i := 1 to 3 do { (if c then i else 2); write(i); }; }`,
	`def f(c) { if c > 0 then x := 1 else x := 2; return x; }`,
	`def f(b) { x := 5; if b > 0 then x := 1; return x; }`,
	`def f(i) { if i == 2 then break; write := i; return i | 2r3 | &time; }`,
}

// randomProc writes a procedure f(c) whose statements join control in
// random ways — conditionals with and without else, alternation, loops
// left by break and next, suspension — over two locals and c.
func randomProc(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("def f(c) { x := 0; y := 1; ")
	for i := rng.Intn(4); i >= 0; i-- {
		b.WriteString(randomStmt(rng, 2, false))
	}
	b.WriteString("return x + y; }")
	return b.String()
}

func randomStmt(rng *rand.Rand, depth int, inLoop bool) string {
	v := []string{"x", "y"}[rng.Intn(2)]
	n := 7
	if depth == 0 {
		n = 4
	}
	switch rng.Intn(n) {
	case 0:
		return v + " := " + randomOperand(rng, 2) + "; "
	case 1:
		return v + " +:= " + randomOperand(rng, 1) + "; "
	case 2:
		return randomOperand(rng, 2) + "; "
	case 3:
		if inLoop {
			return []string{"break; ", "next; "}[rng.Intn(2)]
		}
		return "suspend " + v + "; "
	case 4:
		return "if " + randomOperand(rng, 2) + " then { " + randomStmt(rng, depth-1, inLoop) + "}; "
	case 5:
		return "if " + randomOperand(rng, 2) + " then { " + randomStmt(rng, depth-1, inLoop) +
			"} else { " + randomStmt(rng, depth-1, inLoop) + "}; "
	default:
		return "every " + randomOperand(rng, 2) + " do { " + randomStmt(rng, depth-1, true) +
			randomStmt(rng, depth-1, true) + "}; "
	}
}

func randomOperand(rng *rand.Rand, depth int) string {
	if depth == 0 || rng.Intn(3) == 0 {
		return []string{"x", "y", "c", "1", "2"}[rng.Intn(5)]
	}
	a, b := randomOperand(rng, depth-1), randomOperand(rng, depth-1)
	switch rng.Intn(6) {
	case 0:
		return "(" + a + " + " + b + ")"
	case 1:
		return "(" + a + " < " + b + ")"
	case 2:
		return "(" + a + " == " + b + ")"
	case 3:
		return "(" + a + " ~= " + b + ")"
	case 4:
		return "(" + a + " | " + b + ")"
	default:
		return "(if " + a + " > 0 then " + b + " else " + randomOperand(rng, depth-1) + ")"
	}
}

// TestDepthsStayStatic compiles every procedure of the programs the
// repository ships, of depthPrograms and of 300 random procedures, and
// requires each pc, after the pass, to be reached at one operand-stack
// depth.
func TestDepthsStayStatic(t *testing.T) {
	var files []string
	for _, pattern := range []string{"testdata/*.jn", "benchmark/programs/*/*.jn", "internal/translate/testdata/*.jn"} {
		m, _ := filepath.Glob(filepath.Join("..", "..", pattern))
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no programs found")
	}
	sources := depthPrograms
	rng := rand.New(rand.NewSource(1))
	for range 300 {
		sources = append(sources, randomProc(rng))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, string(src))
	}
	scan := core.NewScanHolder()
	consts := core.Builtins(io.Discard)
	for k, v := range core.ScanBuiltins(scan) {
		consts[k] = v
	}
	units := 0
	for _, src := range sources {
		prog, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("%v:\n%s", err, src)
		}
		decls := transform.Normalize(prog).(*ast.Program).Decls
		globals := map[string]*value.Var{}
		for _, d := range decls {
			switch x := d.(type) {
			case *ast.ProcDecl:
				globals[x.Name] = value.NewCell(value.NullV)
			case *ast.GlobalDecl:
				for _, n := range x.Names {
					globals[n] = value.NewCell(value.NullV)
				}
			}
		}
		env := Env{
			LookupGlobal: func(name string) (*value.Var, bool) { v, ok := globals[name]; return v, ok },
			LookupConst:  func(name string) (value.V, bool) { v, ok := consts[name]; return v, ok },
			Native: func(name string) (*value.Native, bool) {
				return &value.Native{Name: name}, true
			},
			Scan: scan,
		}
		for _, d := range decls {
			pd, ok := d.(*ast.ProcDecl)
			if !ok {
				continue
			}
			code, err := Proc(pd, env)
			if err != nil {
				t.Errorf("unit %s: %v", pd.Name, err)
				continue
			}
			units++
			if pc, name := checkDepths(code); pc >= 0 {
				t.Errorf("unit %s: pc %d is reached at two stack depths:\n%s", name, pc, code.Disassemble())
			}
		}
	}
	if units < 30 {
		t.Errorf("only %d units compiled: the loader is broken", units)
	}
}

// retired lists the numbers of retired opcodes, which stay unassigned:
// the reference twins of index and field, and aug and cmp.aug on a slot
// and on a global.
var retired = map[Op]bool{33: true, 36: true, 40: true, 41: true, 42: true, 43: true}

// TestEveryOpcodeIsDescribed: every opcode but a retired one has a row in
// the opcode table, and its mnemonic is shorter than the listing's
// mnemonic column, so at least one space parts it from its operands.
func TestEveryOpcodeIsDescribed(t *testing.T) {
	for op := range opCount {
		name := ops[op].name
		if retired[op] {
			if name != "" {
				t.Errorf("retired opcode %d has a row (%s)", op, name)
			}
			continue
		}
		if name == "" {
			t.Errorf("opcode %d has no row in the opcode table", op)
		}
		if len(name) >= mnemonicColumn {
			t.Errorf("%s: %d characters, the listing's column is %d", name, len(name), mnemonicColumn)
		}
	}
}

// TestAuxOperandsMatchTheListing: the operands eachAux visits are the ones
// the disassembler shows as aux cells (aux=, or scan.resume's outer= and
// inner=), opcode by opcode. Rule 1 counts a cell's users and rule 6
// renumbers cells through eachAux alone, so an opcode whose listing shows
// a cell but which eachAux leaves out fails here.
func TestAuxOperandsMatchTheListing(t *testing.T) {
	code := &Code{Consts: []value.V{value.NullV}, Slots: []string{"s"}, GlobalNames: []string{"g"}}
	shown := regexp.MustCompile(`\b(?:aux|outer|inner)=(\d+)`)
	for op := range opCount {
		in := Instr{Op: op, A: 0, B: 7}
		var want, got []int32
		in.eachAux(func(cell *int32) { want = append(want, *cell) })
		listing := code.operands(in)
		for _, m := range shown.FindAllStringSubmatch(listing, -1) {
			n, _ := strconv.Atoi(m[1])
			got = append(got, int32(n))
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: eachAux names cells %v, the listing %q shows %v", op.Name(), want, listing, got)
		}
	}
}
