package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of one
// workload run share the trace; Parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// runtime/metrics read at the window's edges.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// tracer keeps a traced run's spans in memory and profiles its measured
// window. Every method is a no-op on a nil tracer, so workloads call them
// unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	prof      bytes.Buffer
	rtBefore  []metrics.Sample
	rtDelta   map[string]float64
	heapPeak  uint64
	stopHeap  chan struct{}
	heapDone  chan struct{}
	pkgSelf   map[string]int64
	pkgTotal  int64
	counters  map[string]float64
	notes     map[string]any
	windowErr error
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]float64{}, notes: map[string]any{}}
}

// add records a span that ran from start to end and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// durations returns the durations in ms of the spans whose name starts
// with prefix.
func (t *tracer) durations(prefix string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) note(key string, v any) {
	if t != nil {
		t.notes[key] = v
	}
}

func (t *tracer) counter(key string, v float64) {
	if t != nil {
		t.counters[key] = v
	}
}

// startWindow starts the CPU profile, the runtime/metrics baseline and a
// heap sampler for the measured window.
func (t *tracer) startWindow() {
	if t == nil {
		return
	}
	t.windowErr = pprof.StartCPUProfile(&t.prof)
	t.rtBefore = readRuntime()
	t.stopHeap, t.heapDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.heapDone)
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			t.heapPeak = max(t.heapPeak, s[0].Value.Uint64())
			select {
			case <-t.stopHeap:
				return
			case <-tick.C:
			}
		}
	}()
}

// stopWindow ends what startWindow began and folds the profile.
func (t *tracer) stopWindow() {
	if t == nil {
		return
	}
	close(t.stopHeap)
	<-t.heapDone
	after := readRuntime()
	t.rtDelta = map[string]float64{}
	for i, s := range after {
		t.rtDelta[s.Name] = rtValue(s) - rtValue(t.rtBefore[i])
	}
	if t.windowErr != nil {
		return
	}
	pprof.StopCPUProfile()
	t.pkgSelf, t.pkgTotal, t.windowErr = selfSamplesByPackage(t.prof.Bytes())
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// layerShares reports <layer>.self_pct and the go.* metrics into r.layer;
// frames is the workload's unit of work (frame or figure run).
func (t *tracer) layerShares(r *run, frames int) error {
	if t.windowErr != nil {
		return fmt.Errorf("trace: %w", t.windowErr)
	}
	for _, l := range profiledLayers {
		var n int64
		for pkg, c := range t.pkgSelf {
			if inLayer(l.pkg, pkg) {
				n += c
			}
		}
		r.layer[l.layer+".self_pct"] = pct(float64(n), float64(t.pkgTotal))
	}
	f := float64(max(frames, 1))
	r.layer["go.allocs_per_frame"] = t.rtDelta["/gc/heap/allocs:objects"] / f
	r.layer["go.alloc_bytes_per_frame"] = t.rtDelta["/gc/heap/allocs:bytes"] / f
	r.layer["go.gc_cpu_pct"] = pct(t.rtDelta["/cpu/classes/gc/total:cpu-seconds"], t.rtDelta["/cpu/classes/total:cpu-seconds"])
	r.layer["go.heap_peak_mb"] = float64(t.heapPeak) / (1 << 20)
	return nil
}

// inLayer reports whether package pkg belongs to the layer rooted at root.
// The runtime layer takes the runtime's internal packages too, and
// stdlib.math takes math/cmplx.
func inLayer(root, pkg string) bool {
	switch root {
	case "runtime":
		return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
	case "math":
		return pkg == "math" || pkg == "math/cmplx"
	}
	return pkg == root || strings.HasPrefix(pkg, root+"/")
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

// spanStat is the per-name summary of the trace: count, total time and
// self time (the span's duration minus the part its children cover).
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) spanStats() map[string]*spanStat {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]*spanStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e6
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else {
			curHi = max(curHi, x[1])
		}
	}
	return sum + curHi - curLo
}

// write saves the trace file: spans, span self times, profile shares by
// package, counters, per-layer metrics with what each should move, and the
// tracing overhead against the last untraced run of the same workload.
func (t *tracer) write(o options, st stamp, r *run) error {
	untraced, err := loadUntraced(o)
	if err != nil {
		return err
	}
	overhead := map[string]map[string]float64{}
	for name, v := range untraced {
		if tv, ok := r.e2e[name]; ok {
			overhead[name] = map[string]float64{"untraced": v, "traced": tv, "diff": tv - v}
		}
	}
	byPkg := map[string]float64{}
	for pkg, n := range t.pkgSelf {
		byPkg[pkg] = pct(float64(n), float64(t.pkgTotal))
	}
	doc := map[string]any{
		"stamp":             st,
		"spans":             t.spans,
		"span_stats":        t.spanStats(),
		"profile_self_pct":  byPkg,
		"profile_samples":   t.pkgTotal,
		"runtime_delta":     t.rtDelta,
		"counters":          t.counters,
		"notes":             t.notes,
		"end_to_end":        r.e2e,
		"per_layer":         r.layer,
		"per_layer_moves":   movesOf(perLayer()),
		"tracing_overhead":  overhead,
		"untraced_baseline": untraced != nil,
	}
	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace.json", o.workload, o.seed))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	for _, name := range sortedKeys(overhead) {
		d := overhead[name]
		fmt.Fprintf(os.Stderr, "perfbench: tracing overhead %s: %+.4g (untraced %.4g, traced %.4g)\n",
			name, d["diff"], d["untraced"], d["traced"])
	}
	return nil
}

func movesOf(defs []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.Name] = d.Moves
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
