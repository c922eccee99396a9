// Command benchmark is the repository's one performance ledger: seven
// named workloads, their end-to-end metrics measured with every kind of
// instrumentation off, and a traced pass that prices each layer under
// internal/ from outside, by timing calls into its public functions.
//
//	bash benchmark/run.sh --workload fig6-light --seed 1 --seconds 10 --trace 0
//	    one run of one workload; the last line of output is its result
//	    as one JSON object (the form BENCHMARK.json's command is run in)
//
//	cd benchmark
//	go run . -seed 1 -out DIR             the whole ledger: every workload,
//	                                      untraced on seeds 1 and 2, then
//	                                      traced; writes DIR/ledger.json,
//	                                      layers.json, spans.json
//	go run . -seed 1 -out DIR -quick      the same in about a twentieth of the time
//	go run . -out DIR -workload dist-wordcount
//	go run . -compare old/ledger.json new/ledger.json
//
// README.md says what each workload is for and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

var processStart = time.Now()

// minRounds is the least number of rounds a lane or a probe measures.
const minRounds = 3

// Result is what one run of one workload reports.
type Result struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]Stat `json:"metrics"`
	Stolen    float64         `json:"stolen"` // share of the run's time the hypervisor took; says which runs to distrust
	Notes     []string        `json:"notes,omitempty"`
}

// options are the settings every run of one invocation shares.
type options struct {
	src     string  // directory of this module, where junicond is built from
	work    string  // directory for built binaries
	seconds float64 // measuring time of one run
}

// segments is how many times a run sets up and measures. Every metric
// of the run is the median of its segments' values: daemons started
// afresh land on the machine's cores differently, and now and then a
// whole segment runs in another regime (a round trip a third faster at
// half the throughput); one such segment in three does not decide the run.
func (o options) segments() int {
	if o.seconds < 5 {
		return 1
	}
	return 3
}

// measure runs workload w's lane with everything off and reports the
// end-to-end metrics: set up, measure for a share of the time, tear down,
// once per segment.
func measure(w workload, seed int64, o options) (Result, error) {
	res := Result{Workload: w.name, Seed: seed, Seconds: o.seconds}
	stolen := readSteal()
	n := o.segments()
	share := time.Duration(o.seconds * float64(time.Second) / float64(n))
	var parts []laneResult
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		e, err := setup(w, seed, o.src, o.work, false)
		if err != nil {
			return res, err
		}
		ready := time.Since(t0).Seconds()
		r := e.run(budget{share, minRounds}, nil)
		e.close()
		r.metrics["setup_s"] = Stat{Value: ready, Unit: "s", Q1: ready, Q3: ready, N: 1}
		parts = append(parts, r)
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Notes = append(res.Notes, r.notes...)
	}
	res.Metrics = medianOf(parts)
	res.Stolen = readSteal().since(stolen)
	res.Correct = res.Failed == 0
	return res, nil
}

// cpuTimes are the machine's total and stolen jiffies (Linux, first line
// of /proc/stat); zero where that cannot be read.
type cpuTimes struct{ total, steal float64 }

// readSteal samples the hypervisor's steal time. On a shared sandbox it
// is the main source of run-to-run spread, so every run reports the share
// of its own stretch of time that was stolen, for the reader of a ledger
// to know which runs to distrust. It is no metric: nothing is judged by it.
func readSteal() cpuTimes {
	var c cpuTimes
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return c
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

func (c cpuTimes) since(before cpuTimes) float64 {
	if c.total <= before.total {
		return 0
	}
	return (c.steal - before.steal) / (c.total - before.total)
}

// medianOf reports each metric as the median of the segments' values (and
// of their quartiles), over all their samples; a metric no operation of
// which passed its check reads zero.
func medianOf(parts []laneResult) map[string]Stat {
	out := map[string]Stat{}
	defer finite(out)
	for name, first := range parts[0].metrics {
		var v, q1, q3 []float64
		n := 0
		for _, p := range parts {
			s := p.metrics[name]
			v, q1, q3 = append(v, s.Value), append(q1, s.Q1), append(q3, s.Q3)
			n += s.N
		}
		out[name] = Stat{Value: median(v), Unit: first.Unit, Q1: median(q1), Q3: median(q3), N: n}
	}
	return out
}

// printResult writes the human-readable table of one run.
func printResult(res Result) {
	fmt.Printf("%s  seed %d  %.1fs: %d operations, %d failed; %.1f%% of the time stolen\n",
		res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed, 100*res.Stolen)
	w, _ := findWorkload(res.Workload)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := res.Metrics[name]
		if issue := issueName[w.lane][name]; issue != "" {
			name += " = " + issue
		}
		fmt.Printf("  %-34s %14.4f %-6s q1 %14.4f  q3 %14.4f  n %d\n", name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
	for _, n := range res.Notes {
		fmt.Printf("  FAILED: %s\n", n)
	}
}

// printContract writes the result line the driver reads: exactly the keys
// correct, attempted, failed and metrics, with every metric of list (and
// no other) as value and unit.
func printContract(res Result, list []metric) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, m := range list {
		s, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, m.Name)
		}
		out.Metrics[m.Name] = mv{s.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() { os.Exit(cli(os.Args[1:])) }

// cli is main with the arguments passed in, so that the test binary can
// stand in for this one when a run starts a process of itself: a scripts
// child (-child …) or one run of the ledger (-one …).
func cli(args []string) int {
	if childMain(args) {
		return 0
	}
	if len(args) > 0 && args[0] == "-one" {
		args = args[1:]
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		wname   = fs.String("workload", "", "run this workload only")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds = fs.Float64("seconds", 10, "measuring time of one run")
		trace   = fs.Int("trace", 0, "1: make the traced pass and report the per-layer metrics")
		out     = fs.String("out", "", "write the whole ledger (untraced and traced passes) into this directory")
		runs    = fs.Int("runs", 2, "with -out: untraced runs per workload, on seeds seed, seed+1, ...")
		quick   = fs.Bool("quick", false, "a twentieth of the measuring time, same checks and output")
		src     = fs.String("src", ".", "directory of the benchmark module (junicond is built from there)")
		progs   = fs.String("programs", "", "read the program sets from this directory in place of the built-in copy")
		result  = fs.String("result", "", "also write the run's full result to this file (how -out collects its runs)")
		compare = fs.Bool("compare", false, "compare two ledger.json files: -compare old new")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *progs != "" {
		programDir = *progs
		programFS = os.DirFS(programDir)
	}
	if *quick {
		*seconds /= 20
	}
	o := options{src: *src, work: ".bench_build", seconds: *seconds}
	var err error
	switch {
	case *compare && fs.NArg() == 2:
		err = compareLedgers(fs.Arg(0), fs.Arg(1))
	case *compare:
		err = fmt.Errorf("-compare wants two ledger files")
	case *out != "":
		o.work = *out
		err = writeLedger(*wname, *seed, max(*runs, 1), o)
	default:
		err = runOne(*wname, *seed, *trace, *result, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne makes one run of one workload and prints it; the last line is
// the result the driver reads. With a result file it writes everything
// there instead, for writeLedger to collect.
func runOne(wname string, seed int64, trace int, result string, o options) error {
	w, ok := findWorkload(wname)
	if !ok {
		return fmt.Errorf("unknown workload %q", wname)
	}
	if result != "" {
		o.work = filepath.Dir(result)
	}
	var res Result
	var full any
	list := endToEnd
	if trace == 1 {
		list = perLayer
		t, err := measureTraced(w, seed, o)
		if err != nil {
			return err
		}
		printResult(t.Result)
		printBudget(t.Budget)
		res, full = t.Result, tracedRun{t, t.rec.chromeEvents()}
	} else {
		var err error
		if res, err = measure(w, seed, o); err != nil {
			return err
		}
		printResult(res)
		full = res
	}
	if result != "" {
		if err := writeJSON(result, full); err != nil {
			return err
		}
	} else if err := printContract(res, list); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed their reference check", res.Failed, res.Attempted)
	}
	return nil
}
