package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mmreliable/internal/experiments"
	"mmreliable/internal/stats"
)

// tinyFigures is the smoke-test subset of paper_repro; it keeps the two
// tables the sim metrics read.
var tinyFigures = map[string]bool{"4a": true, "11b": true, "18b": true, "18c": true}

// reproExperiments is paper_repro's generator list: every experiment, in
// paper order.
func reproExperiments(tiny bool) []experiments.Experiment {
	var out []experiments.Experiment
	for _, e := range experiments.All() {
		if !tiny || tinyFigures[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

// passSeed is the experiment seed of set-up pass or timed pass k. The
// experiments memoize the Fig. 18 ensemble per Config in the process, so
// every pass gets a seed of its own: a repeated Config would skip that
// work and time a cache hit instead of a reproduction.
func passSeed(seed int64, setup bool, k int) int64 {
	if setup {
		return seed*1000 + 500 + int64(k)
	}
	return seed*1000 + int64(k)
}

func runRepro(r *run) error {
	exps := reproExperiments(r.o.tiny)

	// Set-up: a Quick-volume pass fills the lazy caches, pools and plans
	// before the timed full-volume passes.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for _, e := range exps {
			e.Run(experiments.Config{Seed: passSeed(r.o.seed, true, i), Quick: true})
		}
		t1 := time.Now()
		r.tr.add("setup.quick_pass", 0, t0, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
	}
	r.e2e["setup_s"] = median(setups)

	// Full passes while the next one, as long as the last, still fits in the
	// window; at least one. Workers stays 0 (= GOMAXPROCS).
	var tables []map[string]string // per pass, by figure id
	var last []*stats.Table
	var passS []float64
	runs := 0                      // generator runs
	figS := map[string][]float64{} // seconds per figure, one per pass
	win := r.tr.begin("window", 0)
	r.tr.startWindow()
	cpu0 := cpuSeconds()
	start := time.Now()
	for len(passS) == 0 || time.Since(start).Seconds()+passS[len(passS)-1] <= r.o.seconds {
		p0 := time.Now()
		pass := r.tr.begin("experiments.pass", win)
		cfg := experiments.Config{Seed: passSeed(r.o.seed, false, len(passS)), Quick: r.o.tiny}
		tables = append(tables, map[string]string{})
		last = last[:0]
		for _, e := range exps {
			t0 := time.Now()
			tb := e.Run(cfg)
			t1 := time.Now()
			r.tr.add("experiments.fig "+e.ID, pass, t0, t1)
			runs++
			figS[e.ID] = append(figS[e.ID], t1.Sub(t0).Seconds())
			last = append(last, tb)
			tables[len(passS)][e.ID] = tb.String()
		}
		r.tr.end(pass)
		passS = append(passS, time.Since(p0).Seconds())
	}
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	r.tr.stopWindow()
	r.tr.end(win)
	r.attempted += runs

	// Read-out: one scrape renders every table of the last pass. Enough
	// scrapes that the share of them a garbage collection lands in settles.
	var renderMs []float64
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		for _, tb := range last {
			_ = tb.String()
		}
		renderMs = append(renderMs, ms(time.Since(t0)))
	}

	rel, err := tableCell(tables[0]["18b"], "mmreliable", "mean")
	if err != nil {
		return fmt.Errorf("fig 18b: %w", err)
	}
	thrMbps, err := tableCell(tables[0]["18c"], "mmreliable", "mean_thr_Mbps")
	if err != nil {
		return fmt.Errorf("fig 18c: %w", err)
	}
	// A frame is one full pass: the figures' own times range over four
	// orders of magnitude, so a percentile across them lands between
	// figures of quite different cost and jumps from run to run.
	var passMs []float64
	for _, p := range passS {
		passMs = append(passMs, 1e3*p)
	}
	r.e2e["ue_frames_per_s"] = float64(runs) / wall
	r.e2e["frame_ms_p50"] = quantile(passMs, 0.5)
	r.e2e["frame_ms_p90"] = quantile(passMs, 0.9)
	r.e2e["cmd_ms_p50"] = r.e2e["frame_ms_p50"]
	r.e2e["cmd_ms_p90"] = r.e2e["frame_ms_p90"]
	r.e2e["scrape_ms_p90"] = quantile(renderMs, 0.9)
	r.e2e["repro_s"] = median(passS)
	r.e2e["sim_reliability"] = rel
	r.e2e["sim_tput_gbps"] = thrMbps / 1e3

	if r.tr != nil {
		zeroLayers(r)
		r.layer["experiments.cpu_util"] = cpuUtil(cpu, wall)
		for id, xs := range figS {
			r.layer["experiments.fig_s."+id] = median(xs)
		}
		if err := r.tr.layerShares(r, len(passS)); err != nil {
			return err
		}
	}

	cost := map[string]float64{}
	for id, xs := range figS {
		cost[id] = xs[0]
	}
	sp := r.tr.begin("oracle.repro", 0)
	for k, t := range tables {
		r.check(fmt.Sprintf("pass %d tables vs full-recompute oracle", k),
			verifyRepro(passSeed(r.o.seed, false, k), r.o.tiny, t, cost))
	}
	r.tr.end(sp)
	return nil
}

// tableCell reads the numeric cell in the row labelled row and the column
// headed col of a rendered stats.Table.
func tableCell(text, row, col string) (float64, error) {
	lines := strings.Split(text, "\n")
	sep := -1
	for i, l := range lines {
		if i > 0 && strings.HasPrefix(l, "---") {
			sep = i
			break
		}
	}
	if sep < 0 {
		return 0, fmt.Errorf("no header separator")
	}
	ci := -1
	for i, h := range strings.Fields(lines[sep-1]) {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		return 0, fmt.Errorf("no column %q", col)
	}
	for _, l := range lines[sep+1:] {
		f := strings.Fields(l)
		if len(f) > ci && f[0] == row {
			return strconv.ParseFloat(f[ci], 64)
		}
	}
	return 0, fmt.Errorf("no row %q", row)
}
