package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func fastCfg() Config {
	return Config{Warmup: 2, Iterations: 5, MinIterTime: time.Millisecond}
}

func TestRunMeasuresSomething(t *testing.T) {
	sink := 0
	r := Run("spin", fastCfg(), func() {
		for i := 0; i < 1000; i++ {
			sink += i
		}
	})
	if r.Mean <= 0 {
		t.Fatalf("mean = %v", r.Mean)
	}
	if r.Iterations != 5 {
		t.Fatalf("iterations = %d", r.Iterations)
	}
	if r.Batch < 1 {
		t.Fatalf("batch = %d", r.Batch)
	}
	_ = sink
}

func TestRunDistinguishesWorkloads(t *testing.T) {
	sink := 0.0
	light := Run("light", fastCfg(), func() {
		for i := 0; i < 100; i++ {
			sink += float64(i)
		}
	})
	heavy := Run("heavy", fastCfg(), func() {
		for i := 0; i < 100000; i++ {
			sink += float64(i)
		}
	})
	if heavy.Mean < 10*light.Mean {
		t.Fatalf("1000x workload measured only %.1fx slower (light=%v heavy=%v)",
			heavy.Mean/light.Mean, light.Mean, heavy.Mean)
	}
}

func TestNormalize(t *testing.T) {
	rs := []Result{
		{Name: "a", Mean: 2.0, CI99: 0.2},
		{Name: "base", Mean: 1.0, CI99: 0.1},
		{Name: "c", Mean: 0.5},
	}
	norm, err := Normalize(rs, "base")
	if err != nil {
		t.Fatal(err)
	}
	if norm[0].Ratio != 2.0 || norm[1].Ratio != 1.0 || norm[2].Ratio != 0.5 {
		t.Fatalf("ratios = %v %v %v", norm[0].Ratio, norm[1].Ratio, norm[2].Ratio)
	}
	if norm[0].RatioCI != 0.2 {
		t.Fatalf("ratio ci = %v", norm[0].RatioCI)
	}
	if _, err := Normalize(rs, "missing"); err == nil {
		t.Fatal("missing baseline must error")
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{1, 2, 3, 4})
	if m != 2.5 {
		t.Fatalf("mean = %v", m)
	}
	if s < 1.29 || s > 1.30 {
		t.Fatalf("std = %v", s)
	}
	m, s = meanStd([]float64{7})
	if m != 7 || s != 0 {
		t.Fatalf("singleton: %v %v", m, s)
	}
}

func TestTableAndBarsRender(t *testing.T) {
	rs := []Result{
		{Name: "Junicon/Sequential", Mean: 0.004, CI99: 0.0001, Batch: 3, Iterations: 5},
		{Name: "Java/MapReduce", Mean: 0.001, CI99: 0.00005, Batch: 10, Iterations: 5},
	}
	norm, err := Normalize(rs, "Java/MapReduce")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Table(&buf, "Lightweight", norm)
	out := buf.String()
	for _, want := range []string{"Lightweight", "Junicon/Sequential", "4.000x", "1.000x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	Bars(&buf, "Lightweight", norm)
	if !strings.Contains(buf.String(), "#") {
		t.Fatalf("bars missing:\n%s", buf.String())
	}
	// The 4x bar must be visibly longer than the 1x bar.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if strings.Count(lines[1], "#") <= strings.Count(lines[2], "#") {
		t.Fatalf("log bars not ordered:\n%s", buf.String())
	}
}

func TestCalibrateGrowsBatch(t *testing.T) {
	n := calibrate(func() {}, 2*time.Millisecond)
	if n < 100 {
		t.Fatalf("empty op batch = %d, expected large", n)
	}
}
