package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseResultsJSONSkipsUnderscoreKeys(t *testing.T) {
	in := []byte(`{
"BenchmarkX": {"iterations":5,"ns_per_op":123,"bytes_per_op":8,"allocs_per_op":1},
"_baseline": {"BenchmarkX": {"ns_per_op":999}},
"_cpu": "whatever"
}`)
	got, err := parseResults(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d results, want 1 (underscore keys skipped)", len(got))
	}
	r, ok := got["BenchmarkX"]
	if !ok || r.NsPerOp != 123 || r.AllocsPerOp == nil || *r.AllocsPerOp != 1 {
		t.Fatalf("BenchmarkX parsed wrong: %+v", r)
	}
}

// TestRegressedNoiseFloor pins the two-sided regression gate: a flagged
// regression must exceed BOTH the 15% fractional rule and the absolute
// 250 ns floor, so sub-microsecond benchmarks cannot regress on timer
// noise alone.
func TestRegressedNoiseFloor(t *testing.T) {
	cases := []struct {
		name     string
		old, new float64
		want     bool
	}{
		{"fast bench, 60% slower but only 60ns", 100, 160, false},
		{"fast bench, huge absolute growth", 100, 500, true},
		{"slow bench, 10% growth under frac gate", 1e6, 1.1e6, false},
		{"slow bench, 20% growth", 1e6, 1.2e6, true},
		{"borderline: >15% but exactly at floor", 1000, 1250, false},
		{"borderline: >15% and just over floor", 1000, 1251, true},
		{"zero old ns never regresses", 0, 1e9, false},
		{"improvement", 1e6, 5e5, false},
	}
	for _, c := range cases {
		if got := regressed(c.old, c.new); got != c.want {
			t.Errorf("%s: regressed(%g, %g) = %v want %v", c.name, c.old, c.new, got, c.want)
		}
	}
}

func TestParseResultsBenchText(t *testing.T) {
	in := []byte("goos: linux\nBenchmarkY-8   100   456 ns/op   32 B/op   2 allocs/op\nPASS\n")
	got, err := parseResults(in)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got["BenchmarkY"]
	if !ok || r.NsPerOp != 456 || r.BytesPerOp == nil || *r.BytesPerOp != 32 {
		t.Fatalf("BenchmarkY parsed wrong: %+v (ok=%v)", r, ok)
	}
}

// TestCustomRegressions pins the direction-aware custom-metric gate: rate
// units (".../s", ".../sec") regress when they shrink past the noise floor,
// cost units when they grow past it; metrics absent from the new side are
// ignored.
func TestCustomRegressions(t *testing.T) {
	mk := func(m map[string]float64) Result { return Result{Custom: m} }
	cases := []struct {
		name     string
		old, new map[string]float64
		want     []string
	}{
		{"rate within noise", map[string]float64{"UEs/sec": 1000}, map[string]float64{"UEs/sec": 900}, nil},
		{"rate collapsed", map[string]float64{"UEs/sec": 1000}, map[string]float64{"UEs/sec": 600},
			[]string{"UEs/sec 1000 -> 600"}},
		{"rate improved", map[string]float64{"sessionslots/s": 1000}, map[string]float64{"sessionslots/s": 2000}, nil},
		{"cost grew", map[string]float64{"ns/sessionslot": 1000}, map[string]float64{"ns/sessionslot": 1500},
			[]string{"ns/sessionslot 1000 -> 1500"}},
		{"cost shrank", map[string]float64{"ns/sessionslot": 1000}, map[string]float64{"ns/sessionslot": 500}, nil},
		{"metric dropped from new side", map[string]float64{"UEs/sec": 1000}, nil, nil},
	}
	for _, c := range cases {
		got := customRegressions(mk(c.old), mk(c.new))
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: customRegressions = %v want %v", c.name, got, c.want)
		}
	}
}

// TestParseLineCustomMetrics pins b.ReportMetric capture: units beyond the
// standard trio land in Custom keyed by the unit string, and survive a JSON
// round trip through parseResults.
func TestParseLineCustomMetrics(t *testing.T) {
	line := "BenchmarkMetroFrame-8   50   4127600 ns/op   3876.5 UEs/sec   0 B/op   0 allocs/op"
	name, r, ok := parseLine(line)
	if !ok || name != "BenchmarkMetroFrame" {
		t.Fatalf("parseLine failed: name=%q ok=%v", name, ok)
	}
	if r.NsPerOp != 4127600 || r.AllocsPerOp == nil || *r.AllocsPerOp != 0 {
		t.Fatalf("standard metrics parsed wrong: %+v", r)
	}
	if v, ok := r.Custom["UEs/sec"]; !ok || v != 3876.5 {
		t.Fatalf("custom metric parsed wrong: %+v", r.Custom)
	}

	in := []byte(`{"BenchmarkMetroFrame": {"iterations":50,"ns_per_op":4127600,"custom":{"UEs/sec":3876.5}}}`)
	got, err := parseResults(in)
	if err != nil {
		t.Fatal(err)
	}
	if v := got["BenchmarkMetroFrame"].Custom["UEs/sec"]; v != 3876.5 {
		t.Fatalf("custom metric lost in JSON round trip: %+v", got)
	}
}

// TestGOMAXPROCSRecordedAndCompared pins the -N suffix handling: it is
// stripped from the key, recorded as gomaxprocs (1 when absent), survives
// the JSON round trip, and a mismatch between the two sides — but not an
// unknown side — produces the comparison warning.
func TestGOMAXPROCSRecordedAndCompared(t *testing.T) {
	for _, c := range []struct {
		line, name string
		procs      int
	}{
		{"BenchmarkA-4   100   456 ns/op", "BenchmarkA", 4},
		{"BenchmarkA   100   456 ns/op", "BenchmarkA", 1},
		{"BenchmarkA/workers=2-8   100   456 ns/op", "BenchmarkA/workers=2", 8},
		{"BenchmarkA/workers=2   100   456 ns/op", "BenchmarkA/workers=2", 1},
	} {
		name, r, ok := parseLine(c.line)
		if !ok || name != c.name || r.GOMAXPROCS != c.procs {
			t.Errorf("%q: name %q gomaxprocs %d ok=%v, want %q %d", c.line, name, r.GOMAXPROCS, ok, c.name, c.procs)
		}
	}

	old, err := parseResults([]byte(`{"BenchmarkA": {"gomaxprocs":1,"iterations":100,"ns_per_op":456}, "BenchmarkB": {"iterations":100,"ns_per_op":9}}`))
	if err != nil {
		t.Fatal(err)
	}
	if old["BenchmarkA"].GOMAXPROCS != 1 || old["BenchmarkB"].GOMAXPROCS != 0 {
		t.Fatalf("gomaxprocs lost in JSON round trip: %+v", old)
	}
	names := []string{"BenchmarkA", "BenchmarkB"}
	same, _ := parseResults([]byte("BenchmarkA   100   456 ns/op\nBenchmarkB-4   100   9 ns/op\n"))
	if w := procsWarning(names, old, same); w != "" {
		t.Errorf("matching or unknown GOMAXPROCS warned: %s", w)
	}
	diff, _ := parseResults([]byte("BenchmarkA-2   100   456 ns/op\nBenchmarkB-4   100   9 ns/op\n"))
	if w := procsWarning(names, old, diff); !strings.Contains(w, "BenchmarkA 1 -> 2") || strings.Contains(w, "BenchmarkB") {
		t.Errorf("warning %q, want one naming BenchmarkA 1 -> 2 only", w)
	}
}
