package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"junicon/internal/checkpoint"
	"junicon/internal/value"
	"junicon/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden blobs under testdata/ (only when the code objects they pin change on purpose)")

// goldenBlobs pin the blob format across builds: each file is a snapshot
// of the lowered program's expression after cut values. Together they
// carry every aux payload kind — cold cells in all of them, a child tower
// in every procedure call, a live !x over a list, an undo record and
// nested scanning environments — and both kinds of captured cell: a
// static (with its run-once guard) and a mutated global.
var goldenBlobs = []struct {
	file, expr string
	cut        int
}{
	{"ticks.jsnp", "ticks(5)", 2},
	{"bumps.jsnp", "bumps(4)", 2},
	{"bang-list.jsnp", "![10, 20, 30]", 1},
	{"undone.jsnp", "undone()", 1},
	{"nested.jsnp", `nested("abcdef", "xyz")`, 1},
}

// Frame tree fields, as the blob lays them out: a frame is an 11-field
// list, an aux cell a 10-field one.
const (
	fName = iota
	fFingerprint
	fPC
	fStarted
	fResumed
	fArgs
	fSlots
	fStack
	fChoices
	fAux
	fGlobals
)

const (
	aBarrier = iota
	aCount
	aN
	aFlag
	aMode
	aI0
	aI1
	aI2
	aKind
	aPayload
)

func readGolden(t testing.TB, file string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("golden blob (run with -update to create): %v", err)
	}
	return blob
}

// body decodes a blob's wire body: [meta, frame].
func body(t testing.TB, blob []byte) *value.List {
	t.Helper()
	v, err := wire.Unmarshal(blob[9:])
	if err != nil {
		t.Fatalf("golden body: %v", err)
	}
	return v.(*value.List)
}

// seal wraps a wire body in a valid header: magic, version, CRC.
func seal(body []byte) []byte {
	blob := append([]byte("JSNP\x01"), 0, 0, 0, 0)
	binary.BigEndian.PutUint32(blob[5:9], crc32.ChecksumIEEE(body))
	return append(blob, body...)
}

func elems(v value.V) []value.V { return v.(*value.List).Elems() }

// auxCells visits every aux cell of a frame tree and of its child frames.
func auxCells(frame value.V, visit func(cell []value.V)) {
	for _, c := range elems(elems(frame)[fAux]) {
		cell := elems(c)
		visit(cell)
		if _, ok := cell[aPayload].(*value.List); ok && isKind(cell, 2) {
			auxCells(cell[aPayload], visit)
		}
	}
}

// TestGoldenBlobsRoundTrip: each committed blob restores into a fresh
// interpreter, snapshots again at once to the same bytes, and then
// delivers the reference suffix. The blobs cover every aux kind and both
// kinds of captured cell.
func TestGoldenBlobsRoundTrip(t *testing.T) {
	kinds := map[int64]bool{}
	globals := map[string]bool{}
	for _, c := range goldenBlobs {
		t.Run(c.expr, func(t *testing.T) {
			if *update {
				blob := validBlob(t, lowered, c.expr, c.cut)
				if err := os.WriteFile(filepath.Join("testdata", c.file), blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			blob := readGolden(t, c.file)
			meta, err := checkpoint.Peek(blob)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Expr != c.expr || meta.Produced != uint64(c.cut) {
				t.Fatalf("blob holds %q after %d, want %q after %d", meta.Expr, meta.Produced, c.expr, c.cut)
			}
			g, _, err := vmInterpWith(t, meta.Program).RestoreSnapshot(blob)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			again, err := checkpoint.Snapshot(g, *meta)
			if err != nil {
				t.Fatalf("re-snapshot: %v", err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatalf("re-snapshot differs from the golden blob:\n got %x\nwant %x", again, blob)
			}
			ref := drain(t, mustGen(t, vmInterpWith(t, meta.Program), meta.Expr), 1000)
			if rest, want := drain(t, g, 1000), ref[c.cut:]; strings.Join(rest, ",") != strings.Join(want, ",") {
				t.Fatalf("resumed suffix %v, want %v", rest, want)
			}
			frame := elems(body(t, blob))[1]
			auxCells(frame, func(cell []value.V) {
				k, _ := cell[aKind].(value.Integer).Int64()
				kinds[k] = true
			})
			for _, gv := range elems(elems(frame)[fGlobals]) {
				globals[string(elems(gv)[0].(value.String))] = true
			}
		})
	}
	for k, name := range []string{"cold", "bang", "child", "undo", "scan"} {
		if !kinds[int64(k)] {
			t.Errorf("no golden blob carries a %s aux cell", name)
		}
	}
	for _, name := range []string{"static tick.n", "hits"} {
		if !globals[name] {
			t.Errorf("no golden blob captures the global %q", name)
		}
	}
}

// TestMalformedTreesAreCorrupt: a blob whose seal is valid but whose frame
// tree or metadata has a field of the wrong shape fails with ErrCorrupt,
// one row per class of field, at the root and in a child frame.
func TestMalformedTreesAreCorrupt(t *testing.T) {
	big := value.NewBig(new(big.Int).Lsh(big.NewInt(1), 70))
	wide := value.NewInt(1 << 40)
	list := value.NewList()
	// Paths into [meta, frame]; aux cells are found by kind.
	set := func(path ...int) func(top *value.List, v value.V) {
		return func(top *value.List, v value.V) {
			l := top.Elems()
			for _, i := range path[:len(path)-1] {
				l = elems(l[i])
			}
			l[path[len(path)-1]] = v
		}
	}
	// auxField sets field f of the first aux cell of kind k in the tower,
	// or element sub of that field when sub >= 0.
	auxField := func(k int64, f, sub int) func(top *value.List, v value.V) {
		return func(top *value.List, v value.V) {
			done := false
			auxCells(top.Elems()[1], func(cell []value.V) {
				switch {
				case done || !isKind(cell, k):
				case sub >= 0:
					elems(cell[f])[sub] = v
				default:
					cell[f] = v
				}
				done = done || isKind(cell, k)
			})
			if !done {
				t.Errorf("no aux cell of kind %d", k)
			}
		}
	}
	child := func(f int) func(top *value.List, v value.V) {
		return auxField(2, aPayload, f)
	}
	rows := []struct {
		name, file string
		mutate     func(top *value.List, v value.V)
		v          value.V
	}{
		{"snapshot arity", "ticks.jsnp", func(top *value.List, v value.V) { top.Put(v) }, value.NullV},
		{"meta not a list", "ticks.jsnp", set(0), value.NewInt(0)},
		{"meta arity", "ticks.jsnp", set(0), value.NewList(value.String(""))},
		{"meta program", "ticks.jsnp", set(0, 0), value.NewInt(1)},
		{"meta args", "ticks.jsnp", set(0, 3), value.NewInt(1)},
		{"meta produced", "ticks.jsnp", set(0, 4), list},
		{"meta produced negative", "ticks.jsnp", set(0, 4), value.NewInt(-1)},
		{"frame not a list", "ticks.jsnp", set(1), value.String("frame")},
		{"frame arity", "ticks.jsnp", set(1), value.NewList(value.String(""))},
		{"frame name", "ticks.jsnp", set(1, fName), value.NewInt(1)},
		{"fingerprint type", "ticks.jsnp", set(1, fFingerprint), list},
		{"fingerprint range", "ticks.jsnp", set(1, fFingerprint), big},
		{"pc type", "ticks.jsnp", set(1, fPC), list},
		{"pc int32 range", "ticks.jsnp", set(1, fPC), wide},
		{"started", "ticks.jsnp", set(1, fStarted), list},
		{"resumed", "ticks.jsnp", set(1, fResumed), list},
		{"args", "ticks.jsnp", set(1, fArgs), value.NewInt(0)},
		{"slots", "ticks.jsnp", set(1, fSlots), value.NewInt(0)},
		{"stack", "ticks.jsnp", set(1, fStack), value.NewInt(0)},
		{"choices", "ticks.jsnp", set(1, fChoices), value.NewInt(0)},
		{"choice arity", "ticks.jsnp", set(1, fChoices, 0), value.NewList(value.NewInt(0))},
		{"choice pc", "ticks.jsnp", set(1, fChoices, 0, 0), list},
		{"choice sp range", "ticks.jsnp", set(1, fChoices, 0, 1), wide},
		{"aux list", "ticks.jsnp", set(1, fAux), value.NewInt(0)},
		{"aux cell arity", "ticks.jsnp", set(1, fAux, 0), value.NewList(value.NewInt(0))},
		{"aux barrier range", "ticks.jsnp", set(1, fAux, 0, aBarrier), wide},
		{"aux count", "ticks.jsnp", set(1, fAux, 0, aCount), list},
		{"aux n", "ticks.jsnp", set(1, fAux, 0, aN), list},
		{"aux flag", "ticks.jsnp", set(1, fAux, 0, aFlag), list},
		{"aux mode type", "ticks.jsnp", set(1, fAux, 0, aMode), list},
		{"aux mode range", "ticks.jsnp", set(1, fAux, 0, aMode), value.NewInt(200)},
		{"aux i0", "ticks.jsnp", set(1, fAux, 0, aI0), list},
		{"aux i1 range", "ticks.jsnp", set(1, fAux, 0, aI1), big},
		{"aux i2", "ticks.jsnp", set(1, fAux, 0, aI2), list},
		{"aux kind type", "ticks.jsnp", set(1, fAux, 0, aKind), list},
		{"aux kind unknown", "ticks.jsnp", set(1, fAux, 0, aKind), value.NewInt(9)},
		{"child frame not a list", "ticks.jsnp", auxField(2, aPayload, -1), value.NullV},
		{"child frame pc", "ticks.jsnp", child(fPC), list},
		{"child frame globals", "ticks.jsnp", child(fGlobals), value.NewInt(0)},
		{"undo record arity", "undone.jsnp", auxField(3, aPayload, -1), value.NewList(value.NullV)},
		{"scanning environment arity", "nested.jsnp", auxField(4, aPayload, -1), value.NewList(value.NullV)},
		{"scanning environment outer", "nested.jsnp", auxField(4, aPayload, 2), list},
		{"globals", "ticks.jsnp", set(1, fGlobals), value.NewInt(0)},
		{"global cell arity", "ticks.jsnp", set(1, fGlobals, 0), value.NewList(value.String("x"))},
		{"global name", "ticks.jsnp", set(1, fGlobals, 0, 0), value.NewInt(1)},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			blob := readGolden(t, r.file)
			top := body(t, blob)
			r.mutate(top, r.v)
			data, err := wire.Marshal(top)
			if err != nil {
				t.Fatal(err)
			}
			restoreCorrupt(t, seal(data))
		})
	}
	t.Run("call tower too deep", func(t *testing.T) {
		// The ticks frame nested in its own first aux cell, 200 deep:
		// every level matches its unit, so only the depth bound stops it.
		top := body(t, readGolden(t, "ticks.jsnp"))
		tower := childFrame(t, top)
		for range 200 {
			f := childFrame(t, body(t, readGolden(t, "ticks.jsnp")))
			first := elems(elems(elems(f)[fAux])[0])
			first[aKind], first[aPayload] = value.NewInt(2), tower
			tower = f
		}
		auxField(2, aPayload, -1)(top, tower)
		data, err := wire.MarshalLimits(top, wire.Limits{MaxBytes: 16 << 20, MaxElems: 1 << 20, MaxDepth: 2048})
		if err != nil {
			t.Fatal(err)
		}
		restoreCorrupt(t, seal(data))
	})
}

// childFrame returns the frame tree in the root's child aux cell.
func childFrame(t *testing.T, top *value.List) value.V {
	for _, c := range elems(elems(top.Elems()[1])[fAux]) {
		if cell := elems(c); isKind(cell, 2) {
			return cell[aPayload]
		}
	}
	t.Fatal("no child frame")
	return nil
}

func isKind(cell []value.V, k int64) bool {
	n, _ := cell[aKind].(value.Integer).Int64()
	return n == k
}

// restoreCorrupt requires Restore (after Peek, when the metadata reads)
// to fail the blob with ErrCorrupt.
func restoreCorrupt(t *testing.T, blob []byte) {
	t.Helper()
	meta, err := checkpoint.Peek(blob)
	if err == nil {
		in := vmInterpWith(t, meta.Program)
		_, _, err = in.RestoreSnapshot(blob)
	}
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	t.Log(err)
}

// TestForgedStateIsRejected: a tree of the right shape whose state no
// capture writes — it does not fit the code at its pc or choice points —
// fails Restore instead of resuming an instruction without the state it
// reads (which ends in a Go runtime error: the fuzzers found the first row,
// a probe of every field the others).
func TestForgedStateIsRejected(t *testing.T) {
	limited := body(t, validBlob(t, program, `(1 to 10) \ 3`, 1))
	rows := []struct {
		name string
		top  *value.List
		// frame picks the frame to forge, field its field; set edits it.
		frame func(top *value.List) []value.V
		set   func(frame []value.V)
	}{
		{"to-by choice over a host range", body(t, readGolden(t, "ticks.jsnp")), tickFrame,
			func(f []value.V) { elems(elems(f[fAux])[2])[aMode] = value.NewInt(2) }},
		{"live mark's barrier", body(t, readGolden(t, "ticks.jsnp")), tickFrame,
			func(f []value.V) { elems(elems(f[fAux])[1])[aBarrier] = value.NewInt(40) }},
		{"half-resumed frame", body(t, readGolden(t, "ticks.jsnp")), tickFrame,
			func(f []value.V) { f[fResumed] = value.NewInt(1) }},
		{"pc past no yield", body(t, readGolden(t, "ticks.jsnp")), tickFrame,
			func(f []value.V) { f[fPC] = value.NewInt(1) }},
		{"choice at an unarmed scan.begin", body(t, readGolden(t, "nested.jsnp")), tickFrame,
			func(f []value.V) { elems(elems(f[fChoices])[1])[0] = value.NewInt(1) }},
		{"scanning environment dropped", body(t, readGolden(t, "nested.jsnp")), tickFrame,
			func(f []value.V) { elems(elems(f[fAux])[3])[aKind] = value.NewInt(0) }},
		{"limitation's barrier", limited, func(top *value.List) []value.V { return elems(top.Elems()[1]) },
			func(f []value.V) { elems(elems(f[fAux])[0])[aBarrier] = value.NewInt(100) }},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			r.set(r.frame(r.top))
			data, err := wire.Marshal(r.top)
			if err != nil {
				t.Fatal(err)
			}
			blob := seal(data)
			meta, err := checkpoint.Peek(blob)
			if err != nil {
				t.Fatal(err)
			}
			prog := meta.Program
			if prog == "" {
				prog = program
			}
			if _, _, err := vmInterpWith(t, prog).RestoreSnapshot(blob); err == nil {
				t.Fatal("restored a frame whose state does not fit its code")
			} else {
				t.Log(err)
			}
		})
	}
}

// tickFrame returns the fields of the root's callee frame.
func tickFrame(top *value.List) []value.V {
	for _, c := range elems(elems(top.Elems()[1])[fAux]) {
		if cell := elems(c); isKind(cell, 2) {
			return elems(cell[aPayload])
		}
	}
	return nil
}
