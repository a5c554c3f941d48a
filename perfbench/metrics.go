package main

import "mmreliable/internal/experiments"

// metricDef names one metric of BENCHMARK.json. Bound is set on the
// end-to-end metrics only; Moves, on the per-layer metrics only, names the
// end-to-end metric and workload the layer metric should move.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

// endToEnd lists what a user of each workload sees. README.md defines each
// one per workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ue_frames_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "frame_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "frame_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cmd_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cmd_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "scrape_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "success_rate", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "repro_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "sim_reliability", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "sim_tput_gbps", Unit: "Gbit/s", Better: "higher", Bound: 0.1},
}

// profiledLayers are the modules whose CPU-profile self share the traced
// run reports as <layer>.self_pct, keyed by Go package path.
var profiledLayers = []struct{ layer, pkg string }{
	{"metro", "mmreliable/internal/metro"},
	{"cluster", "mmreliable/internal/cluster"},
	{"station", "mmreliable/internal/station"},
	{"manager", "mmreliable/internal/core/manager"},
	{"superres", "mmreliable/internal/core/superres"},
	{"nr", "mmreliable/internal/nr"},
	{"channel", "mmreliable/internal/channel"},
	{"env", "mmreliable/internal/env"},
	{"dsp", "mmreliable/internal/dsp"},
	{"link", "mmreliable/internal/link"},
	{"cmx", "mmreliable/internal/cmx"},
	{"hybrid", "mmreliable/internal/hybrid"},
	{"sim", "mmreliable/internal/sim"},
	{"experiments", "mmreliable/internal/experiments"},
	{"baselines", "mmreliable/internal/baselines"},
	{"stdlib.math", "math"},
	{"runtime", "runtime"},
}

// selfPctMoves says which end-to-end metric a layer's self share should
// move; layers not named here move the workload's time metrics generally.
var selfPctMoves = map[string]string{
	"superres": "frame_ms_p50 on city_static",
	"env":      "frame_ms_p50 on daemon_churn; nothing on city_static",
	"channel":  "repro_s on paper_repro",
	"dsp":      "frame_ms_p50 on all three workloads",
	"runtime":  "frame_ms_p90 and ue_frames_per_s",
}

// perLayer lists the traced run's metrics. A metric that does not apply to
// a workload reads 0 there (README.md says which apply where).
func perLayer() []metricDef {
	defs := []metricDef{
		{"serve.http_ms_p50", "ms", "lower", 0, "cmd_ms_p50 and scrape_ms_p90 on daemon_churn"},
		{"serve.http_ms_p99", "ms", "lower", 0, "cmd_ms_p90 and scrape_ms_p90 on daemon_churn"},
		{"serve.metrics_bytes", "bytes", "lower", 0, "scrape_ms_p90 on daemon_churn"},
		{"serve.cmds_ok", "count", "higher", 0, "success_rate on daemon_churn"},
		{"serve.cmds_failed", "count", "lower", 0, "success_rate on daemon_churn"},
		{"metro.cpu_util", "ratio", "higher", 0, "ue_frames_per_s on city_static"},
		{"metro.resident_ues_mean", "count", "higher", 0, "ue_frames_per_s on both metro workloads (denominator)"},
		{"metro.ues_harvested", "count", "higher", 0, "sim_reliability on daemon_churn (denominator)"},
		{"cluster.monitor_probes_per_frame", "count", "lower", 0, "frame_ms_p50 on both metro workloads"},
		{"cluster.monitor_reuse_ratio", "ratio", "higher", 0, "frame_ms_p50 on both metro workloads"},
		{"cluster.handovers", "count", "lower", 0, "sim_reliability on daemon_churn"},
		{"station.ns_per_session_slot", "ns", "lower", 0, "ue_frames_per_s on both metro workloads"},
		{"station.attaches_admitted", "count", "higher", 0, "frame_ms_p90 on daemon_churn"},
		{"station.attaches_rejected", "count", "lower", 0, "frame_ms_p90 and success_rate on daemon_churn"},
		{"station.batched_entry_evals_per_frame", "count", "lower", 0, "frame_ms_p50 on city_static"},
		{"station.grants_per_frame", "count", "lower", 0, "sim_reliability on both metro workloads"},
		{"station.budget_denials", "count", "lower", 0, "sim_reliability on both metro workloads"},
		{"manager.retrains", "count", "lower", 0, "frame_ms_p90 and sim_tput_gbps on daemon_churn"},
		{"manager.realigns", "count", "lower", 0, "frame_ms_p90 and sim_tput_gbps on daemon_churn"},
		{"manager.training_slots", "count", "lower", 0, "frame_ms_p90 and sim_tput_gbps on daemon_churn"},
		{"manager.probes_per_frame", "count", "lower", 0, "frame_ms_p90 and sim_tput_gbps on daemon_churn"},
	}
	for _, l := range profiledLayers {
		moves, ok := selfPctMoves[l.layer]
		if !ok {
			moves = "frame_ms_p50 and repro_s on the workloads that run it"
		}
		defs = append(defs, metricDef{Name: l.layer + ".self_pct", Unit: "%", Better: "lower", Moves: moves})
	}
	defs = append(defs,
		metricDef{"go.allocs_per_frame", "count", "lower", 0, "frame_ms_p90 on daemon_churn, frame_ms_p50 on city_static"},
		metricDef{"go.alloc_bytes_per_frame", "bytes", "lower", 0, "frame_ms_p90 on daemon_churn, frame_ms_p50 on city_static"},
		metricDef{"go.gc_cpu_pct", "%", "lower", 0, "frame_ms_p90 on all three workloads"},
		metricDef{"go.heap_peak_mb", "MB", "lower", 0, "peak_rss_mb on all three workloads"},
		metricDef{"experiments.cpu_util", "ratio", "higher", 0, "repro_s on paper_repro"},
	)
	for _, e := range experiments.All() {
		defs = append(defs, metricDef{Name: "experiments.fig_s." + e.ID, Unit: "s", Better: "lower", Moves: "repro_s on paper_repro"})
	}
	return defs
}
