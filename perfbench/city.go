package main

import (
	"fmt"
	"time"

	"mmreliable/internal/cluster"
	"mmreliable/internal/metro"
	"mmreliable/internal/nr"
	"mmreliable/internal/station"
)

// cityConfig is city_static: the mmmetro batch path at its CLI defaults
// (fading off, Workers 0 = GOMAXPROCS, stations not pinned inline) with 64
// two-cell sites, 2 resident UEs per site, no churn and no mobile UEs.
func cityConfig(seed int64, tiny bool) metro.Config {
	c := metro.DefaultConfig()
	c.Seed = seed
	c.Clusters = 64
	c.CellsPerCluster = 2
	c.UEsPerCluster = 2
	c.ChurnArrivalRate = 0
	if tiny {
		c.Clusters = 4
	}
	return c
}

// cityWarmupFrames run as part of set-up, so that initial training and
// admission are over and the window sees the quiescent steady state.
const cityWarmupFrames = 50

// cityCheckFrames is how many window frames the oracle check covers. The
// full-recompute oracle runs about five times slower than the measured
// frames, so replaying a whole window would dominate the run; the digest is
// taken between frames at this point instead, off the clock.
const cityCheckFrames = 150

// setupReps is how many times each workload builds its initial state; the
// median build time is setup_s.
const setupReps = 3

func runCity(r *run) error {
	cfg := cityConfig(r.o.seed, r.o.tiny)
	var m *metro.Metro
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if m != nil {
			m.Close()
		}
		t0 := time.Now()
		built, err := metro.New(nr.Mu3(), cfg)
		if err != nil {
			return err
		}
		for i := 0; i < cityWarmupFrames; i++ {
			built.AdvanceFrame()
		}
		t1 := time.Now()
		r.tr.add("metro.New+warmup", 0, t0, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
		m = built
	}
	defer m.Close()
	r.e2e["setup_s"] = median(setups)
	c0, s0, h0 := m.CountersTotal(), m.StationCountersTotal(), m.SketchTotal().UEs
	ues := m.ResidentUEs()

	window := r.tr.begin("window", 0)
	r.tr.startWindow()
	cpu0 := cpuSeconds()
	start := time.Now()
	var frameMs []float64
	var busy, paused time.Duration
	checkFrame, digest := 0, ""
	for time.Since(start)-paused < time.Duration(r.o.seconds*float64(time.Second)) {
		t0 := time.Now()
		m.AdvanceFrame()
		t1 := time.Now()
		busy += t1.Sub(t0)
		frameMs = append(frameMs, ms(t1.Sub(t0)))
		r.tr.add("metro.AdvanceFrame", window, t0, t1)
		if len(frameMs) == cityCheckFrames {
			checkFrame, digest = m.Frame(), fmt.Sprintf("%016x", m.DigestSum())
			paused += time.Since(t1)
		}
	}
	wall := (time.Since(start) - paused).Seconds()
	if digest == "" {
		checkFrame, digest = m.Frame(), fmt.Sprintf("%016x", m.DigestSum())
	}
	cpu := cpuSeconds() - cpu0
	r.tr.stopWindow()
	r.tr.end(window)
	frames := len(frameMs)
	r.attempted += frames

	// Read-out: the batch user's scrape is a Results() walk. Enough scrapes
	// that the share of them a garbage collection lands in settles.
	var readMs []float64
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		m.Results()
		t1 := time.Now()
		readMs = append(readMs, ms(t1.Sub(t0)))
		r.tr.add("metro.Results", 0, t0, t1)
	}
	res := m.Results()

	r.e2e["ue_frames_per_s"] = float64(ues*frames) / wall
	r.e2e["frame_ms_p50"] = quantile(frameMs, 0.5)
	r.e2e["frame_ms_p90"] = quantile(frameMs, 0.9)
	r.e2e["cmd_ms_p50"] = r.e2e["frame_ms_p50"]
	r.e2e["cmd_ms_p90"] = r.e2e["frame_ms_p90"]
	r.e2e["scrape_ms_p90"] = quantile(readMs, 0.9)
	r.e2e["repro_s"] = wall / (float64(frames) * m.FramePeriod())
	r.e2e["sim_reliability"] = res.Diversity.Reliability
	r.e2e["sim_tput_gbps"] = res.Diversity.MeanThroughput / 1e9

	if r.tr != nil {
		zeroLayers(r)
		metroLayers(r, metroDelta{
			c0: c0, c1: m.CountersTotal(), s0: s0, s1: m.StationCountersTotal(),
			frames: frames, busy: busy, residentMean: float64(ues),
			harvested: m.SketchTotal().UEs - h0, cpuUtil: cpuUtil(cpu, wall),
		})
		if err := r.tr.layerShares(r, frames); err != nil {
			return err
		}
	}

	sp := r.tr.begin("oracle.city", 0)
	r.check("city digest vs full-recompute oracle", verifyCity(oracleJob{
		Kind: "city", Seed: r.o.seed, Tiny: r.o.tiny, Frames: checkFrame,
	}, digest))
	r.tr.end(sp)
	return nil
}

// metroDelta is what a metro workload's window did, from the public
// counters.
type metroDelta struct {
	c0, c1       cluster.Counters
	s0, s1       station.Counters
	frames       int
	busy         time.Duration // host time spent advancing frames
	residentMean float64
	harvested    int
	cpuUtil      float64
}

// metroLayers fills the metro, cluster, station and manager metrics. Some
// read 0 whatever the workload does: metro.CountersTotal does not sum
// MonitorRowsReused, and station counters only carry Grants, BudgetDenials,
// ProbesIssued, Realigns, Retrains and TrainingSlots inside
// station.Results, which the metro's public totals do not reach.
func metroLayers(r *run, d metroDelta) {
	f := float64(max(d.frames, 1))
	probes := float64(d.c1.MonitorProbes - d.c0.MonitorProbes)
	r.layer["metro.cpu_util"] = d.cpuUtil
	r.layer["metro.resident_ues_mean"] = d.residentMean
	r.layer["metro.ues_harvested"] = float64(d.harvested)
	r.layer["cluster.monitor_probes_per_frame"] = probes / f
	if probes > 0 {
		r.layer["cluster.monitor_reuse_ratio"] = float64(d.c1.MonitorRowsReused-d.c0.MonitorRowsReused) / probes
	}
	r.layer["cluster.handovers"] = float64(d.c1.Handovers - d.c0.Handovers)
	if slots := d.s1.SessionSlots - d.s0.SessionSlots; slots > 0 {
		r.layer["station.ns_per_session_slot"] = float64(d.busy.Nanoseconds()) / float64(slots)
	}
	r.layer["station.attaches_admitted"] = float64(d.s1.AttachesAdmitted - d.s0.AttachesAdmitted)
	r.layer["station.attaches_rejected"] = float64(d.s1.AttachesRejected - d.s0.AttachesRejected)
	r.layer["station.batched_entry_evals_per_frame"] = float64(d.s1.BatchedEntryEvals-d.s0.BatchedEntryEvals) / f
	r.layer["station.grants_per_frame"] = float64(d.s1.Grants-d.s0.Grants) / f
	r.layer["station.budget_denials"] = float64(d.s1.BudgetDenials - d.s0.BudgetDenials)
	r.layer["manager.retrains"] = float64(d.s1.Retrains - d.s0.Retrains)
	r.layer["manager.realigns"] = float64(d.s1.Realigns - d.s0.Realigns)
	r.layer["manager.training_slots"] = float64(d.s1.TrainingSlots - d.s0.TrainingSlots)
	r.layer["manager.probes_per_frame"] = float64(d.s1.ProbesIssued-d.s0.ProbesIssued) / f
	// Counters no per-layer metric reports go to the trace file.
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"cluster.frames", int64(d.c1.Frames - d.c0.Frames)},
		{"cluster.monitor_rounds", int64(d.c1.MonitorRounds - d.c0.MonitorRounds)},
		{"cluster.ues_attached", int64(d.c1.UEsAttached - d.c0.UEsAttached)},
		{"cluster.ues_finished", int64(d.c1.UEsFinished - d.c0.UEsFinished)},
		{"cluster.admission_deferrals", int64(d.c1.AdmissionDeferrals - d.c0.AdmissionDeferrals)},
		{"station.frames", int64(d.s1.Frames - d.s0.Frames)},
		{"station.session_slots", d.s1.SessionSlots - d.s0.SessionSlots},
		{"station.detaches", int64(d.s1.Detaches - d.s0.Detaches)},
	} {
		r.tr.counter(c.name, float64(c.v))
	}
}

// zeroLayers sets every per-layer metric to 0, the reading of a metric
// that does not apply to the workload.
func zeroLayers(r *run) {
	for _, d := range perLayer() {
		r.layer[d.Name] = 0
	}
}
