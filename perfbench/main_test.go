package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mmreliable/internal/experiments"
	"mmreliable/internal/metro"
	"mmreliable/internal/nr"
	"mmreliable/internal/serve"
)

// TestMain lets the test binary serve as the oracle child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(oracleEnv) != "" {
		os.Exit(oracleMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the code must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := sortedKeys(workloads); !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
	if !reflect.DeepEqual(s.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%+v\n%+v", s.EndToEnd, endToEnd)
	}
	var layers []metricDef
	for _, d := range perLayer() {
		d.Moves = "" // recorded in README.md and the trace file, not in BENCHMARK.json
		layers = append(layers, d)
	}
	if !reflect.DeepEqual(s.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer()")
	}
}

// TestWorkloadsPrintEveryMetric runs every workload at smoke-test size,
// untraced and traced, and checks the result line: correct, nothing
// failed, and every metric of BENCHMARK.json present with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	s := readSpec(t)
	out := t.TempDir()
	for _, w := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 1.5, trace: traced, tiny: true, outDir: out}
			res, err := execute(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			selfPct := 0.0
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, d.Name, m, d.Unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, d.Name)
				}
				if strings.HasSuffix(d.Name, ".self_pct") {
					selfPct += m.Value
				}
			}
			if traced && selfPct <= 0 {
				t.Errorf("%s: the CPU profile charged no samples to any layer", w)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: %v", w, err)
			}
		}
	}
}

// tamper flips the last character of a hex digest.
func tamper(digest string) string {
	last := "0"
	if strings.HasSuffix(digest, "0") {
		last = "1"
	}
	return digest[:len(digest)-1] + last
}

func TestCityCheckRejectsTamperedDigest(t *testing.T) {
	m, err := metro.New(nr.Mu3(), cityConfig(5, true))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 6; i++ {
		m.AdvanceFrame()
	}
	job := oracleJob{Kind: "city", Seed: 5, Tiny: true, Frames: m.Frame()}
	digest := fmt.Sprintf("%016x", m.DigestSum())
	if err := verifyCity(job, digest); err != nil {
		t.Fatalf("untampered digest rejected: %v", err)
	}
	if err := verifyCity(job, tamper(digest)); err == nil {
		t.Error("tampered digest accepted")
	}
}

func TestDaemonCheckRejectsTamperedSnapshot(t *testing.T) {
	cfg := daemonConfig(5, true)
	cfg.MaxFrames = 8
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := s.SnapshotJSONDirect()
	if err != nil {
		t.Fatal(err)
	}
	digest := fmt.Sprintf("%016x", s.Metro().DigestSum())
	if err := verifyDaemon(snap, digest); err != nil {
		t.Fatalf("untampered snapshot rejected: %v", err)
	}
	if err := verifyDaemon(snap, tamper(digest)); err == nil {
		t.Error("tampered end digest accepted")
	}
	bad := bytes.Replace(snap, []byte(digest), []byte(tamper(digest)), 1)
	if bytes.Equal(bad, snap) {
		t.Fatal("snapshot does not carry the digest")
	}
	if err := verifyDaemon(bad, digest); err == nil {
		t.Error("snapshot with a tampered digest accepted")
	}
	if err := checkJournal(snap, 1); err == nil {
		t.Error("journal check accepted a command the snapshot lacks")
	}
}

func TestReproCheckRejectsTamperedTable(t *testing.T) {
	tables := map[string]string{}
	for _, id := range []string{"4a", "11b"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables[id] = e.Run(experiments.Config{Seed: 5, Quick: true}).String()
	}
	cost := map[string]float64{"4a": 1, "11b": 1}
	if err := verifyRepro(5, true, tables, cost); err != nil {
		t.Fatalf("untampered tables rejected: %v", err)
	}
	tables["11b"] = strings.Replace(tables["11b"], "0", "1", 1)
	if err := verifyRepro(5, true, tables, cost); err == nil {
		t.Error("tampered table accepted")
	}
}

func TestTableCell(t *testing.T) {
	text := "== T ==\nscheme      mean  \n----------  ------\nmmreliable  0.9236\nreactive    0.8412\n"
	if v, err := tableCell(text, "reactive", "mean"); err != nil || v != 0.8412 {
		t.Errorf("tableCell = %v, %v", v, err)
	}
	if _, err := tableCell(text, "nope", "mean"); err == nil {
		t.Error("missing row accepted")
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"mmreliable/internal/dsp.(*Plan).Exec":            "mmreliable/internal/dsp",
		"mmreliable/internal/core/superres.Extract.func1": "mmreliable/internal/core/superres",
		"runtime.mallocgc":                                "runtime",
		"math.Sincos":                                     "math",
		"slices.SortFunc[go.shape.[]mmreliable/x.T,go.T]": "slices",
		"internal/runtime/atomic.(*Uint32).Load":          "internal/runtime/atomic",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}
