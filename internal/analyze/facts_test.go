package analyze

import (
	"testing"

	"junicon/internal/ast"
	"junicon/internal/parser"
)

// TestDeclaredGlobalIsNeverLocal: assignment makes a name local only when
// the program does not declare it global. A procedure that writes a
// declared global reads and writes shared state — not an OpCall1 callee —
// and a |> over such a write must keep its own thread: |> shadows locals,
// and a declared global is exactly what it does not shadow.
func TestDeclaredGlobalIsNeverLocal(t *testing.T) {
	prog, err := parser.ParseProgram(`
global g
def bump() { g := g + 1; return g; }
def shadowed() { local g; g := 1; return g; }
def viaCall() { return @(|> bump()); }
def inPlace() { return @(|> (g := g + 1)); }
`)
	if err != nil {
		t.Fatal(err)
	}
	_, facts := ProgramFacts(prog, Options{})

	t.Run("procedure summary", func(t *testing.T) {
		bump, _ := facts.Proc("bump")
		if want := EffReadsGlobals | EffWritesGlobals; bump.Effects&want != want {
			t.Errorf("bump: effects=%s, want reads-globals,writes-globals among them", bump.Effects)
		}
		if shadowed, _ := facts.Proc("shadowed"); shadowed.Effects != EffPure {
			t.Errorf("shadowed: effects=%s, want pure: a declared local shadows the global", shadowed.Effects)
		}
	})
	t.Run("pipe strategy", func(t *testing.T) {
		pipes := 0
		ast.Walk(prog, func(n ast.Node) bool {
			if u, ok := n.(*ast.Unary); ok && u.Op == "|>" {
				pipes++
				if s := facts.PipeStrategy(u.X); s.Inline || s.Buffer != 2 {
					t.Errorf("|> at %d:%d: strategy %+v, want a two-slot queue: the body writes a global",
						u.P.Line, u.P.Col, s)
				}
			}
			return true
		})
		if pipes != 2 {
			t.Fatalf("found %d |> sites, want 2", pipes)
		}
	})
}
