//go:build !race

// The race detector allocates, so the allocation rows would be
// meaningless under it: this file runs in the plain test pass only.

package junicon_test

import (
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"junicon/internal/checkpoint"
	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/pipe"
	"junicon/internal/queue"
	"junicon/internal/remote"
	"junicon/internal/value"
	"junicon/internal/vm"
	"junicon/internal/wire"
	"junicon/internal/wordcount"
)

// costsGolden holds the cost ledger's committed rows, one per line:
// layer, scenario, metric and value, tab-separated.
var costsGolden = filepath.Join("testdata", "costs.golden")

// TestCosts holds the VM-driver layer to its recorded costs: the opcodes
// each driver of the ledger's vm program set executes, the instructions,
// aux cells and slots of each unit the set compiles to, and the steady-state
// allocations of the two drain lanes (BenchmarkVMPrimes_VM and
// BenchmarkVMEveryLoop_VM: the least of three runs of 200 drains, at one
// and at four logical CPUs, whichever is greater). The checkpoint layer's
// rows are checkpointCosts', the wire layer's wireCosts', the queue
// layer's queueCosts', the pipe layer's pipeCosts', the remote layer's
// remoteCosts', the compile layer's compileCosts'. A row that rises
// fails; one that falls passes, and -update records it.
func TestCosts(t *testing.T) {
	got := vmDriverCosts(t)
	maps.Copy(got, compileCosts(t))
	maps.Copy(got, checkpointCosts(t))
	maps.Copy(got, wireCosts(t))
	maps.Copy(got, queueCosts(t))
	maps.Copy(got, pipeCosts(t))
	maps.Copy(got, remoteCosts(t))
	want := map[string]int64{}
	if data, err := os.ReadFile(costsGolden); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			i := strings.LastIndexByte(line, '\t')
			v, err := strconv.ParseInt(line[i+1:], 10, 64)
			if i < 0 || err != nil {
				t.Fatalf("%s: malformed row %q", costsGolden, line)
			}
			want[line[:i]] = v
		}
	} else if !*update {
		t.Fatalf("golden (run with -update to create): %v", err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fell := false
	for _, k := range keys {
		w, ok := want[k]
		switch {
		case !ok && !*update:
			t.Errorf("%s: no row for %q (%d); record it with -update", costsGolden, k, got[k])
		case ok && got[k] > w:
			t.Errorf("%s rose: %d, recorded %d", k, got[k], w)
		case ok && got[k] < w:
			fell = true
			t.Logf("%s fell: %d, recorded %d", k, got[k], w)
		}
		delete(want, k)
	}
	for k := range want {
		if !*update {
			t.Errorf("%s: row %q is no longer measured", costsGolden, k)
		}
	}
	if !*update {
		if fell {
			t.Log("record the falls with -update")
		}
		return
	}
	var b strings.Builder
	b.WriteString("# layer\tscenario\tmetric\tvalue — TestCosts; a rise fails, -update records a fall\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%d\n", k, got[k])
	}
	if err := os.WriteFile(costsGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// vmDriverCosts measures the VM-driver layer's rows, keyed by the row
// without its value.
func vmDriverCosts(t *testing.T) map[string]int64 {
	rows := map[string]int64{}
	row := func(scenario, metric string, v int64) {
		rows["vm-driver\t"+scenario+"\t"+metric] = v
	}

	// The ledger's scripts child: the whole set loaded into one
	// interpreter, then every driver drained once, in file order.
	files, err := filepath.Glob(filepath.Join("benchmark", "programs", "vm", "*.jn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no vm program set (err=%v)", err)
	}
	sort.Strings(files)
	in, err := wordcount.NewInterpreter(wordcount.GenerateLines(100, 10, 1), wordcount.Light, interp.WithVM())
	if err != nil {
		t.Fatal(err)
	}
	type driver struct{ file, expr string }
	var drivers []driver
	var procs []string
	drive := regexp.MustCompile(`(?m)^# drive: (.*)$`)
	proc := regexp.MustCompile(`(?m)^def (\w+)`)
	for _, f := range files {
		src := readFile(t, f)
		if err := in.LoadProgram(src); err != nil {
			t.Fatalf("load %s: %v", f, err)
		}
		name := filepath.Base(f)
		for _, m := range drive.FindAllStringSubmatch(src, -1) {
			drivers = append(drivers, driver{name, strings.TrimSpace(m[1])})
		}
		for _, m := range proc.FindAllStringSubmatch(src, -1) {
			procs = append(procs, name+" "+m[1])
		}
	}
	units := func(scenario string, code *compile.Code) {
		row(scenario, "instructions", int64(len(code.Instrs)))
		row(scenario, "aux_cells", int64(code.NumAux))
		row(scenario, "slots", int64(len(code.Slots)))
	}
	for _, p := range procs {
		file, name, _ := strings.Cut(p, " ")
		m, ok := in.ProcMachine(name)
		if !ok {
			t.Fatalf("%s: %s did not compile", file, name)
		}
		units(file+" "+name, m.Code())
	}
	defer vm.DisableProfiling()
	var total int64
	for _, d := range drivers {
		m, err := in.ExprMachine(d.expr)
		if err != nil {
			t.Fatalf("%s: compile %s: %v", d.file, d.expr, err)
		}
		units(d.file+" "+d.expr, m.Code())
		vm.ResetProfile()
		vm.EnableProfiling()
		g, err := in.EvalGen(d.expr)
		if err != nil {
			t.Fatalf("%s: %v", d.expr, err)
		}
		if err := core.Protect(func() { core.Count(g) }); err != nil {
			t.Fatalf("%s: %v", d.expr, err)
		}
		vm.DisableProfiling()
		var ops int64
		for _, p := range vm.SnapshotProfile() {
			ops += p.Total
		}
		row(d.file+" "+d.expr, "vm.ops_executed", ops)
		total += ops
	}
	row("all drivers", "vm.ops_executed", total)

	// The steady state of the two drain lanes whose budget CI held.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, lane := range []struct{ name, program, expr string }{
		{"BenchmarkVMPrimes_VM", vmPrimesProgram, `primesBelow(200)`},
		{"BenchmarkVMEveryLoop_VM", "", `{ t := 0; every t +:= (1 to 2000); t }`},
	} {
		in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
		if lane.program != "" {
			if err := in.LoadProgram(lane.program); err != nil {
				t.Fatal(err)
			}
		}
		g, err := in.EvalGen(lane.expr)
		if err != nil {
			t.Fatal(err)
		}
		// At one and at four logical CPUs, as CI's benchmark lanes run,
		// the least of three runs; the row holds the greater of the two.
		var most int64
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			least := int64(-1)
			for range 3 {
				if n := int64(testing.AllocsPerRun(200, func() { core.Count(g) })); least < 0 || n < least {
					least = n
				}
			}
			most = max(most, least)
		}
		row(lane.name, "allocs_per_op", most)
	}
	return rows
}

// checkpointCosts measures the checkpoint layer on the scenarios of the
// golden blobs under internal/checkpoint/testdata: each blob's expression,
// evaluated over its program and drained to its cut, is snapshotted again.
// The rows are the blob's size and the allocations of one Snapshot of that
// frame and of one Restore of the blob (the least of three runs of 20).
func checkpointCosts(t *testing.T) map[string]int64 {
	rows := map[string]int64{}
	blobs, err := filepath.Glob(filepath.Join("internal", "checkpoint", "testdata", "*.jsnp"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no golden blobs (err=%v)", err)
	}
	least := func(f func()) int64 {
		n := int64(-1)
		for range 3 {
			if a := int64(testing.AllocsPerRun(20, f)); n < 0 || a < n {
				n = a
			}
		}
		return n
	}
	for _, path := range blobs {
		meta, err := checkpoint.Peek([]byte(readFile(t, path)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
		if err := in.LoadProgram(meta.Program); err != nil {
			t.Fatalf("%s: load: %v", path, err)
		}
		g, err := in.EvalGen(meta.Expr)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for range meta.Produced {
			g.Next()
		}
		blob, err := checkpoint.Snapshot(g, *meta)
		if err != nil {
			t.Fatalf("%s: snapshot: %v", path, err)
		}
		m, err := in.ExprMachine(meta.Expr)
		if err != nil {
			t.Fatal(err)
		}
		scenario := "checkpoint\t" + meta.Expr + " after " + strconv.FormatUint(meta.Produced, 10) + "\t"
		rows[scenario+"blob_bytes"] = int64(len(blob))
		rows[scenario+"snapshot_allocs_per_op"] = least(func() {
			if _, err := checkpoint.Snapshot(g, *meta); err != nil {
				t.Fatal(err)
			}
		})
		rows[scenario+"restore_allocs_per_op"] = least(func() {
			if _, _, err := checkpoint.Restore(blob, m, in.ProcMachine); err != nil {
				t.Fatal(err)
			}
		})
	}
	return rows
}

// wireCosts measures the wire layer on one VALUES payload of 64 integers:
// the allocations per value of building it the way the server's producer
// does, and of decoding it the way the client's read loop does, with the
// integers in the intern table's range (1..64) and above it (1025..1088).
// Each is the least of three runs of 50 payloads, divided by 64.
func wireCosts(t *testing.T) map[string]int64 {
	rows := map[string]int64{}
	ints := func(from int64) []value.V {
		vals := make([]value.V, 64)
		for i := range vals {
			vals[i] = value.IntV(from + int64(i))
		}
		return vals
	}
	perValue := func(f func()) int64 {
		n := int64(-1)
		for range 3 {
			if a := int64(testing.AllocsPerRun(50, f)); n < 0 || a < n {
				n = a
			}
		}
		return n / 64
	}
	small, large := ints(1), ints(1025)
	var run wire.Run
	encode := func(vals []value.V) []byte {
		run.Reset()
		for _, v := range vals {
			if err := run.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		return run.Payload()
	}
	encode(small)
	rows["wire\tVALUES of 64 ints 1..64\tencode_allocs_per_value"] = perValue(func() { encode(small) })
	for _, c := range []struct {
		scenario string
		vals     []value.V
	}{{"VALUES of 64 ints 1..64", small}, {"VALUES of 64 ints 1025..1088", large}} {
		batch := append([]byte(nil), encode(c.vals)...)
		var dst []value.V
		decode := func() {
			var err error
			if dst, err = wire.UnmarshalBatchInto(dst[:0], batch, wire.DefaultLimits); err != nil || len(dst) != 64 {
				t.Fatalf("%s: decode: n=%d err=%v", c.scenario, len(dst), err)
			}
		}
		decode()
		rows["wire\t"+c.scenario+"\tdecode_allocs_per_value"] = perValue(decode)
	}
	return rows
}

// queueCosts measures the queue layer: the allocations of one Put+Take on
// each kind of queue a pipe or a pool runs on — bounded, the M-var and
// unbounded — and of one 64-value PutBatch+TakeBatch on the bounded one.
// Each is the least of three runs of 200 operations.
func queueCosts(t *testing.T) map[string]int64 {
	rows := map[string]int64{}
	perOp := func(f func()) int64 {
		n := int64(-1)
		for range 3 {
			if a := int64(testing.AllocsPerRun(200, f)); n < 0 || a < n {
				n = a
			}
		}
		return n
	}
	v := value.V(value.NewInt(1))
	for _, c := range []struct {
		scenario string
		q        queue.Queue[value.V]
	}{
		{"Put+Take on NewArrayBlocking(64)", queue.NewArrayBlocking[value.V](64)},
		{"Put+Take on NewMVar()", queue.NewMVar[value.V]()},
		{"Put+Take on the unbounded queue", queue.NewLinkedBlocking[value.V]()},
	} {
		rows["queue\t"+c.scenario+"\tallocs_per_op"] = perOp(func() {
			if c.q.Put(v) != nil {
				t.Fatalf("%s: Put failed", c.scenario)
			}
			if _, err := c.q.Take(); err != nil {
				t.Fatalf("%s: Take: %v", c.scenario, err)
			}
		})
	}
	q := queue.NewArrayBlocking[value.V](64)
	run, dst := make([]value.V, 64), make([]value.V, 64)
	for i := range run {
		run[i] = v
	}
	rows["queue\t64-value PutBatch+TakeBatch on NewArrayBlocking(64)\tallocs_per_op"] = perOp(func() {
		if n, err := q.PutBatch(run); n != 64 || err != nil {
			t.Fatalf("PutBatch = %d %v", n, err)
		}
		if n, err := q.TakeBatch(dst); n != 64 || err != nil {
			t.Fatalf("TakeBatch = %d %v", n, err)
		}
	})
	return rows
}

// ones is an endless generator of one interned integer: a producer that
// allocates nothing, so a pipe's rows count the hop's allocations alone.
type ones struct{}

func (ones) Next() (value.V, bool) { return value.IntV(1), true }
func (ones) Restart()              {}

// pipeCosts holds the pipe layer: the allocations of a 64-value hop
// through a running FromGen pipe (the producer's puts, the consumer's
// refills and Nexts), and of a 20-value pipe's whole life — start, drain
// to failure, Stop — each the least of three runs of 200.
func pipeCosts(t *testing.T) map[string]int64 {
	perOp := func(f func()) int64 {
		n := int64(-1)
		for range 3 {
			if a := int64(testing.AllocsPerRun(200, f)); n < 0 || a < n {
				n = a
			}
		}
		return n
	}
	p := pipe.FromGen(ones{}, 64)
	defer p.Stop()
	hop := func() {
		for range 64 {
			if _, ok := p.Next(); !ok {
				t.Fatal("an endless pipe failed")
			}
		}
	}
	hop() // started: the producer runs and the run buffer exists
	return map[string]int64{
		"pipe\t64-value hop of FromGen(g, 64), steady state\tallocs_per_op": perOp(hop),
		"pipe\tstart, drain and Stop of FromGen(IntRange(1, 20), 64)\tallocs_per_op": perOp(func() {
			q := pipe.FromGen(core.IntRange(1, 20), 64)
			for {
				if _, ok := q.Next(); !ok {
					break
				}
			}
			q.Stop()
		}),
	}
}

// remoteCosts holds the remote layer: the allocations, both ends counted,
// of one 20-value stream's whole life on a pooled loopback session — open,
// drain to EOS, Stop — the least of three runs of 200. The session is
// dialed before the count, so the row is what each stream pays on it.
func remoteCosts(t *testing.T) map[string]int64 {
	srv := remote.NewServer()
	srv.Register("range", func([]value.V) (core.Gen, error) { return core.IntRange(1, 20), nil })
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := &remote.Dialer{}
	defer d.Close()
	life := func() {
		p := d.Open(addr.String(), "range", nil, remote.Config{Buffer: 64})
		n := 0
		for _, ok := p.Next(); ok; _, ok = p.Next() {
			n++
		}
		if n != 20 || p.Err() != nil {
			t.Fatalf("a 20-value stream delivered %d: %v", n, p.Err())
		}
		p.Stop()
	}
	life() // the session is dialed and the server's producer parked
	n := int64(-1)
	for range 3 {
		if a := int64(testing.AllocsPerRun(200, life)); n < 0 || a < n {
			n = a
		}
	}
	return map[string]int64{"remote\topen, drain and Stop of a 20-value stream on a pooled session\tallocs_per_op": n}
}

// compileCosts holds the compile layer: the allocations of one load of
// Figure 3's word count and the ledger's vm program set under WithVM —
// what a fresh script process pays before its first driver — the least
// of three runs of 5, and the opcode table's named opcodes.
func compileCosts(t *testing.T) map[string]int64 {
	srcs := vmSetSources(t)
	lines := wordcount.GenerateLines(100, 10, 1)
	n := int64(-1)
	for range 3 {
		if a := int64(testing.AllocsPerRun(5, func() { loadVMSet(t, lines, srcs, interp.WithVM()) })); n < 0 || a < n {
			n = a
		}
	}
	var named int64
	for op := range compile.Op(compile.NumOps) {
		if !strings.HasPrefix(op.Name(), "op(") {
			named++
		}
	}
	return map[string]int64{
		"compile\tload of Figure 3 and the vm program set under WithVM\tallocs_per_op": n,
		"compile\topcode table\tnamed_opcodes":                                         named,
	}
}
