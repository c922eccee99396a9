package interp

import (
	"io"
	"strings"
	"testing"
)

// The tree walk computes no facts, so an interpreter whose evaluator is
// switched at run time (the REPL's :vm) has catching up to do: whatever
// was loaded while compiled execution was off must be analyzed before
// anything is compiled against it. However the loads interleave with the
// toggles, the facts must end up the ones an interpreter that ran the VM
// from the start computed — same procedure table, so same OpCall1 sites.
func TestSetVMCatchesFactsUp(t *testing.T) {
	batches := []string{
		`def sq(x) { return x * x; }`,
		`def sumsq(n) { s := 0; every s +:= sq(1 to n); return s; }`,
		`def noisy(x) { write(x); return sq(x); }`,
	}
	dump := func(in *Interp) string {
		var b strings.Builder
		in.facts.Fdump(&b)
		return b.String()
	}
	ref := New(WithOutput(io.Discard), WithVM())
	for _, src := range batches {
		if err := ref.LoadProgram(src); err != nil {
			t.Fatal(err)
		}
	}
	want := dump(ref)
	if !strings.Contains(want, "sq: effects=pure") || !strings.Contains(want, "noisy: effects=reads-globals,io") {
		t.Fatalf("reference facts are not what this test assumes:\n%s", want)
	}

	for name, vmOnDuring := range map[string][]bool{
		"tree walk throughout":    {false, false, false},
		"off for the middle load": {true, false, true},
		"on for the middle load":  {false, true, false},
	} {
		t.Run(name, func(t *testing.T) {
			in := New(WithOutput(io.Discard))
			for i, src := range batches {
				in.SetVM(vmOnDuring[i])
				if err := in.LoadProgram(src); err != nil {
					t.Fatal(err)
				}
			}
			in.SetVM(true)
			if got := dump(in); got != want {
				t.Errorf("facts after SetVM(true):\n%s\nwant:\n%s", got, want)
			}
			for _, proc := range []string{"sq", "sumsq", "noisy"} {
				if _, ok := in.ProcMachine(proc); !ok {
					t.Errorf("%s was not compiled", proc)
				}
			}
			expect(t, in, "sumsq(4) | noisy(3)", "30", "9")
		})
	}
}
