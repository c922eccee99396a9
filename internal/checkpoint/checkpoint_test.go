package checkpoint_test

import (
	"errors"
	"io"
	"strings"
	"testing"

	"junicon/internal/checkpoint"
	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/value"
)

const program = `
global acc
def gen(a, b) { suspend a to b; }
def outer(n) { suspend gen(1, n) + 100; }
def double(x) { return x * 2; }
def summing(n) {
  acc := 0;
  every i := 1 to n do { acc := acc + i; suspend acc; };
}
`

func vmInterp(t *testing.T) *interp.Interp {
	t.Helper()
	in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
	if err := in.LoadProgram(program); err != nil {
		t.Fatalf("load: %v", err)
	}
	return in
}

// drain collects up to max images from g.
func drain(t *testing.T, g core.Gen, max int) []string {
	t.Helper()
	var out []string
	err := core.Protect(func() {
		for i := 0; i < max; i++ {
			v, ok := g.Next()
			if !ok {
				return
			}
			out = append(out, value.Image(value.Deref(v)))
		}
	})
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return out
}

// TestRoundTripSuffix is the tentpole's pin: for each expression, at every
// cut point k, drain k values, snapshot, restore into a FRESH interpreter,
// and require the resumed generator to deliver exactly the reference
// sequence's suffix — no values lost, duplicated, or reordered.
func TestRoundTripSuffix(t *testing.T) {
	exprs := []string{
		"1 to 8",
		"10 to 1 by -2",
		"(1 to 3) & (4 | 5)",
		"(1 to 3) * (1 to 2)",
		"gen(2, 6)",      // live compiled child frame at suspension
		"outer(4)",       // two-deep call tower
		"double(1 to 4)", // call completing per value (OpCall1)
		"(1 to 3) + gen(0, 1)",
		"summing(6)", // running state in a mutated global cell
	}
	for _, expr := range exprs {
		t.Run(expr, func(t *testing.T) {
			ref := drain(t, mustGen(t, vmInterp(t), expr), 1000)
			if len(ref) == 0 {
				t.Fatalf("reference for %q is empty", expr)
			}
			for k := 0; k <= len(ref); k++ {
				g := mustGen(t, vmInterp(t), expr)
				got := drain(t, g, k)
				if len(got) != k {
					t.Fatalf("cut %d: reference drained only %d", k, len(got))
				}
				blob, err := checkpoint.Snapshot(g, checkpoint.Meta{
					Program: program, Expr: expr, Produced: uint64(k),
				})
				if err != nil {
					t.Fatalf("cut %d: snapshot: %v", k, err)
				}
				in2 := vmInterp(t)
				g2, meta, err := in2.RestoreSnapshot(blob)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", k, err)
				}
				if meta.Produced != uint64(k) || meta.Expr != expr {
					t.Fatalf("cut %d: meta round trip: %+v", k, meta)
				}
				rest := drain(t, g2, len(ref)-k+1)
				want := ref[k:]
				if strings.Join(rest, ",") != strings.Join(want, ",") {
					t.Fatalf("cut %d: resumed suffix %v, want %v (reference %v)", k, rest, want, ref)
				}
			}
		})
	}
}

func mustGen(t *testing.T, in *interp.Interp, expr string) core.Gen {
	t.Helper()
	g, err := in.EvalGen(expr)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return g
}

// TestRefusalNotAFrame pins the conservative path: a tree-walk generator
// refuses with a reason instead of producing a blob that cannot resume.
func TestRefusalNotAFrame(t *testing.T) {
	in := interp.New(interp.WithOutput(io.Discard)) // no vm: tree walk
	g, err := in.EvalGen("1 to 5")
	if err != nil {
		t.Fatal(err)
	}
	_, err = checkpoint.Snapshot(g, checkpoint.Meta{Expr: "1 to 5"})
	if !checkpoint.IsRefused(err) {
		t.Fatalf("want refusal, got %v", err)
	}
}

// TestRestoreFingerprintMismatch: a snapshot never resumes against a unit
// with a different layout.
func TestRestoreFingerprintMismatch(t *testing.T) {
	in := vmInterp(t)
	g := mustGen(t, in, "1 to 8")
	drain(t, g, 3)
	blob, err := checkpoint.Snapshot(g, checkpoint.Meta{Expr: "1 to 8", Produced: 3})
	if err != nil {
		t.Fatal(err)
	}
	other, err := in.ExprMachine("(1 to 8) * 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.Restore(blob, other, in.ProcMachine); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("want fingerprint mismatch, got %v", err)
	}
}

// TestCorruptBlobsFailLoudly: truncation, bit flips, and forged headers
// are errors — never a resume, never a hang.
func TestCorruptBlobsFailLoudly(t *testing.T) {
	in := vmInterp(t)
	g := mustGen(t, in, "gen(2, 6)")
	drain(t, g, 2)
	blob, err := checkpoint.Snapshot(g, checkpoint.Meta{Expr: "gen(2, 6)", Produced: 2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, data []byte) {
		t.Helper()
		if _, err := checkpoint.Peek(data); err == nil {
			t.Fatalf("%s: Peek accepted corrupt blob", name)
		} else if checkpoint.IsRefused(err) {
			t.Fatalf("%s: corruption reported as refusal: %v", name, err)
		}
	}
	check("empty", nil)
	check("truncated header", blob[:5])
	check("truncated body", blob[:len(blob)-3])
	forged := append([]byte(nil), blob...)
	forged[4] = 99
	check("forged version", forged)
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	check("bit flip", flipped)
	magicless := append([]byte(nil), blob...)
	magicless[0] = 'X'
	check("bad magic", magicless)
}

// TestRestoreAfterExhaustion: snapshotting an exhausted frame restores a
// frame that (per the generator contract) restarts from the top.
func TestRestoreAfterExhaustion(t *testing.T) {
	in := vmInterp(t)
	g := mustGen(t, in, "1 to 3")
	if got := drain(t, g, 10); len(got) != 3 {
		t.Fatalf("drained %v", got)
	}
	blob, err := checkpoint.Snapshot(g, checkpoint.Meta{Expr: "1 to 3", Produced: 3})
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := vmInterp(t).RestoreSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, g2, 10); strings.Join(got, ",") != "1,2,3" {
		t.Fatalf("restarted sequence %v", got)
	}
}

// TestErrCorruptSentinel pins the corrupt-vs-refused error taxonomy.
func TestErrCorruptSentinel(t *testing.T) {
	if _, err := checkpoint.Peek([]byte("JSNPx")); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// lowered declares one procedure per piece of frame state the lowerings
// added: static cells, undo records, scanning environments, co-expression
// and pipe handles in slots, boxed cells shared with a bare <>, and ?x.
const lowered = `
global hits
def tick() { static n; initial n := 0; n +:= 1; return n; }
def ticks(k) { every i := 1 to k do { x := tick(); suspend x; }; }
def bump() { if /hits then hits := 0; hits +:= 1; return hits; }
def bumps(k) { every i := 1 to k do { x := bump(); suspend x; }; }
def undone() { x := 0; suspend (x <- (1 to 4)) * 10; suspend x; }
def exchanged() { a := 1; b := 2; suspend (a <-> b) + (10 | 20); suspend [a, b]; }
def refUndone() { L := [0]; suspend L[1] <- (1 to 3); suspend L[1]; }
def fields(s) {
  s ? {
    while tab(upto(&letters)) do {
      w := tab(many(&letters));
      suspend w || ":" || &pos;
    };
  };
}
def nested(s, t) {
  s ? { tab(3); t ? { move(1); suspend (1 to 2) + &pos; }; suspend &pos; };
}
def scanned(s) { suspend s ? { &pos := 3; (1 to 3) + &pos }; }
def stepped(limit) { c := |<> (1 to limit); while x := @c do suspend x; }
def piped(limit) { p := |> (1 to limit); while x := @p do suspend x; }
def running(lo, hi) { s := 5000; every i := lo to hi do { s +:= i; suspend s; }; }
def shared(k) { n := 0; g := <> (n +:= 1); every 1 to k do { @g; suspend n; }; }
def drawn(k) { every i := 1 to k do suspend ?[i]; }
`

// TestLoweredStateSnapshots is the durability contract of the new frame
// state: at every cut of every case, a snapshot either round-trips — the
// frame restored into a fresh interpreter delivers exactly the reference
// suffix — or refuses with the named reason. It never resumes wrong.
func TestLoweredStateSnapshots(t *testing.T) {
	cases := []struct {
		expr   string
		refuse string // "" = must round-trip at every cut; else the reason the refusing cuts must name
	}{
		// A static cell and its run-once guard travel with the globals even
		// though tick() has returned and is in no tower at any cut.
		{"ticks(5)", ""},
		// The same for a global only a returned procedure names (a hole
		// before PR 12: the resumed run counted from 1 again).
		{"bumps(4)", ""},
		// A live undo record: resuming past the last value must restore x.
		{"undone()", ""},
		{"exchanged()", ""},
		{"refUndone()", "reversible assignment through a reference"},
		// A scanning statement suspended mid-scan: &subject and &pos travel,
		// and the nested environment still restores its outer on the way out.
		{`fields("ab cd ef")`, ""},
		{`nested("abcdef", "xyz")`, ""},
		{`scanned("abcdef")`, ""},
		{"stepped(3)", "co-expression"},
		{"piped(3)", "co-expression pipe"},
		// Counter and accumulator past the interned integers, unboxed in
		// the suspended frame's slots: the snapshot boxes them.
		{"running(2000, 2006)", ""},
		// The cells a bare <> shares with its creating frame would be
		// severed by a copy: such a frame refuses by name. ?x leaves no
		// state in the frame (it draws on the process's random stream).
		{"shared(3)", "shared cells of a bare <>"},
		{"drawn(4)", ""},
	}
	load := func() *interp.Interp {
		in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
		if err := in.LoadProgram(lowered); err != nil {
			t.Fatalf("load: %v", err)
		}
		return in
	}
	for _, c := range cases {
		t.Run(c.expr, func(t *testing.T) {
			ref := drain(t, mustGen(t, load(), c.expr), 1000)
			if len(ref) == 0 {
				t.Fatalf("reference for %q is empty", c.expr)
			}
			refused := 0
			for k := 0; k <= len(ref); k++ {
				g := mustGen(t, load(), c.expr)
				drain(t, g, k)
				blob, err := checkpoint.Snapshot(g, checkpoint.Meta{Program: lowered, Expr: c.expr, Produced: uint64(k)})
				if checkpoint.IsRefused(err) {
					refused++
					if c.refuse == "" || !strings.Contains(err.Error(), c.refuse) {
						t.Fatalf("cut %d: refused with %q, want %q", k, err, c.refuse)
					}
					continue
				}
				if err != nil {
					t.Fatalf("cut %d: snapshot: %v", k, err)
				}
				g2, _, err := load().RestoreSnapshot(blob)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", k, err)
				}
				if rest, want := drain(t, g2, len(ref)-k+1), ref[k:]; strings.Join(rest, ",") != strings.Join(want, ",") {
					t.Fatalf("cut %d: resumed suffix %v, want %v (reference %v)", k, rest, want, ref)
				}
			}
			if c.refuse != "" && refused == 0 {
				t.Errorf("no cut refused; want some to refuse with %q", c.refuse)
			}
			t.Logf("%d values, %d of %d cuts refused", len(ref), refused, len(ref)+1)
		})
	}
}
