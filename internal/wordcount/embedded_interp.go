package wordcount

import (
	"fmt"
	"io"

	"junicon/internal/interp"
	"junicon/internal/value"
)

// The interpreted path: the Figure 3 WordCount methods as Junicon source,
// loaded into the interpreter with the host hash stages registered as
// natives — the mixed-language program of §4 run end to end. Used by the
// interpreter-overhead ablation (DESIGN.md); the paper's Figure 6 numbers
// correspond to the translated/kernel path in embedded.go.

// Figure3Source is the embedded region of Figure 3, adapted to the
// implemented subset (our methods generate directly, so the surface !
// around method results is not needed).
const Figure3Source = `
def readLines () { suspend !lines; }
def splitWords (line) { suspend !line::split(); }
def hashWords (line) {
  suspend this::hashNumber(this::wordToNumber(splitWords(line)));
}
def sumHash (sofar, hash) { return sofar + hash; }
`

// NewInterpreter returns an interpreter loaded with the Figure 3 program:
// the corpus bound to the global lines, and the host stages wordToNumber,
// hashNumber and split registered as natives. Extra options pass through
// (interp.WithOptimize for the facts ablation).
func NewInterpreter(lines []string, w Weight, opts ...interp.Option) (*interp.Interp, error) {
	in := interp.New(append([]interp.Option{interp.WithOutput(io.Discard)}, opts...)...)
	in.RegisterNative("wordToNumber", wordToNumberProc(w).Fn)
	in.RegisterNative("hashNumber", hashNumberProc(w).Fn)
	in.RegisterNative("split", splitNative)
	in.Define("lines", corpusList(lines))
	if err := in.LoadProgram(Figure3Source); err != nil {
		return nil, err
	}
	return in, nil
}

// splitNative is Figure 3's line::split(): the words of a line as a list.
func splitNative(args ...value.V) (value.V, error) {
	s, ok := value.ToString(args[0])
	if !ok {
		return nil, fmt.Errorf("split: string expected")
	}
	out := value.NewList()
	for _, word := range SplitWords(string(s)) {
		out.Put(value.String(word))
	}
	return out, nil
}

// corpusList is the corpus as the list the embedded global lines holds.
func corpusList(lines []string) *value.List {
	corpus := value.NewList()
	for _, l := range lines {
		corpus.Put(value.String(l))
	}
	return corpus
}

// SequentialExpr and PipelineExpr are Figure 3's driver expressions: the
// word-count sum without and with the generator proxy pipe. Exported so
// the facts ablation can evaluate them repeatedly against one
// loaded interpreter (the embedding steady state: load once, eval many).
const (
	SequentialExpr = `this::hashNumber(this::wordToNumber(splitWords(readLines())))`
	PipelineExpr   = `this::hashNumber( ! (|> this::wordToNumber(splitWords(readLines()))))`
)

// InterpretedSequential runs the sequential word-count through the
// interpreter: the expression of Figure 3's runPipeline without the pipe.
// Extra options pass through to the interpreter (the facts ablation runs
// this same workload with interp.WithOptimize, pinning that it cannot
// regress a path it has nothing to prove about — the native stages are
// effect-opaque, so the |> is provisioned exactly as without it).
func InterpretedSequential(lines []string, w Weight, opts ...interp.Option) (float64, error) {
	in, err := NewInterpreter(lines, w, opts...)
	if err != nil {
		return 0, err
	}
	return InterpSum(in, SequentialExpr)
}

// InterpSum evaluates expr on a loaded interpreter and sums the reals it
// generates.
func InterpSum(in *interp.Interp, expr string) (float64, error) {
	g, err := in.EvalGen(expr)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for {
		v, ok := g.Next()
		if !ok {
			return total, nil
		}
		if r, isReal := value.ToReal(value.Deref(v)); isReal {
			total += float64(r)
		}
	}
}
