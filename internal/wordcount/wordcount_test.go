package wordcount

import (
	"math"
	"testing"
)

var testLines = GenerateLines(40, 8, 1)

func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

func TestCorpusDeterministic(t *testing.T) {
	a := GenerateLines(5, 3, 42)
	b := GenerateLines(5, 3, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corpus not deterministic at line %d", i)
		}
	}
	c := GenerateLines(5, 3, 43)
	if a[0] == c[0] {
		t.Fatalf("different seeds should differ")
	}
	if len(SplitWords(a[0])) != 3 {
		t.Fatalf("wordsPerLine: %q", a[0])
	}
}

func TestWordToNumberBase36(t *testing.T) {
	n, ok := WordToNumber(Light, "10")
	if !ok || n.Int64() != 36 {
		t.Fatalf("10 base 36 = %v %v", n, ok)
	}
	n, ok = WordToNumber(Light, "zz")
	if !ok || n.Int64() != 1295 {
		t.Fatalf("zz = %v", n)
	}
	if _, ok := WordToNumber(Light, "!!"); ok {
		t.Fatal("invalid word should fail")
	}
}

func TestHashNumberIsSqrt(t *testing.T) {
	n, _ := WordToNumber(Light, "100") // 36^2
	if h := HashNumber(Light, n); h != 36 {
		t.Fatalf("sqrt(1296) = %v", h)
	}
}

func TestHeavyweightIsHeavier(t *testing.T) {
	// Not a timing assertion — just that the heavy path runs and produces
	// a sane value on the same scale.
	n, _ := WordToNumber(Heavy, "abc")
	h := HashNumber(Heavy, n)
	if math.IsNaN(h) || h <= 0 {
		t.Fatalf("heavy hash = %v", h)
	}
	if Light.String() != "lightweight" || Heavy.String() != "heavyweight" {
		t.Fatal("weight names")
	}
}

func TestAllNativeVariantsAgree(t *testing.T) {
	cfg := NativeConfig{Buffer: 8, Workers: 4, ChunkSize: 16}
	want := NativeSequential(testLines, Light)
	if got := NativePipeline(testLines, Light, cfg); !approxEqual(got, want) {
		t.Errorf("native pipeline %v != sequential %v", got, want)
	}
	if got := NativeMapReduce(testLines, Light, cfg); !approxEqual(got, want) {
		t.Errorf("native map-reduce %v != sequential %v", got, want)
	}
	if got := NativeDataParallel(testLines, Light, cfg); !approxEqual(got, want) {
		t.Errorf("native data-parallel %v != sequential %v", got, want)
	}
}

func TestAllEmbeddedVariantsAgreeWithNative(t *testing.T) {
	cfg := EmbeddedConfig{Buffer: 8, ChunkSize: 7}
	want := NativeSequential(testLines, Light)
	if got := JuniconSequential(testLines, Light, cfg); !approxEqual(got, want) {
		t.Errorf("junicon sequential %v != native %v", got, want)
	}
	if got := JuniconPipeline(testLines, Light, cfg); !approxEqual(got, want) {
		t.Errorf("junicon pipeline %v != native %v", got, want)
	}
	if got := JuniconMapReduce(testLines, Light, cfg); !approxEqual(got, want) {
		t.Errorf("junicon map-reduce %v != native %v", got, want)
	}
	if got := JuniconDataParallel(testLines, Light, cfg); !approxEqual(got, want) {
		t.Errorf("junicon data-parallel %v != native %v", got, want)
	}
}

func TestHeavyweightVariantsAgree(t *testing.T) {
	small := GenerateLines(6, 4, 2)
	cfg := EmbeddedConfig{Buffer: 4, ChunkSize: 2}
	want := NativeSequential(small, Heavy)
	if got := JuniconMapReduce(small, Heavy, cfg); !approxEqual(got, want) {
		t.Errorf("heavy junicon map-reduce %v != native %v", got, want)
	}
	if got := NativeMapReduce(small, Heavy, NativeConfig{Workers: 2, ChunkSize: 8}); !approxEqual(got, want) {
		t.Errorf("heavy native map-reduce %v != native seq %v", got, want)
	}
}

func TestInterpretedVariantsAgree(t *testing.T) {
	small := GenerateLines(10, 5, 3)
	want := NativeSequential(small, Light)
	got, err := InterpretedSequential(small, Light)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(got, want) {
		t.Errorf("interpreted sequential %v != native %v", got, want)
	}
	in, err := NewInterpreter(small, Light)
	if err != nil {
		t.Fatal(err)
	}
	got, err = InterpSum(in, PipelineExpr)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(got, want) {
		t.Errorf("interpreted pipeline %v != native %v", got, want)
	}
}

func TestEmptyAndDegenerateCorpora(t *testing.T) {
	cfg := EmbeddedConfig{}
	if got := JuniconSequential(nil, Light, cfg); got != 0 {
		t.Errorf("empty corpus = %v", got)
	}
	if got := NativeMapReduce(nil, Light, NativeConfig{}); got != 0 {
		t.Errorf("native empty = %v", got)
	}
	one := []string{"abc"}
	want := NativeSequential(one, Light)
	if got := JuniconMapReduce(one, Light, cfg); !approxEqual(got, want) {
		t.Errorf("single line mapreduce %v != %v", got, want)
	}
}

func TestChunkSizeInsensitivity(t *testing.T) {
	want := NativeSequential(testLines, Light)
	for _, chunk := range []int{1, 3, 1000} {
		cfg := EmbeddedConfig{ChunkSize: chunk, Buffer: 2}
		if got := JuniconMapReduce(testLines, Light, cfg); !approxEqual(got, want) {
			t.Errorf("chunk %d: %v != %v", chunk, got, want)
		}
	}
}
