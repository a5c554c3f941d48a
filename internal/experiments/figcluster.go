package experiments

import (
	"fmt"
	"math"

	"mmreliable/internal/cluster"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/nr"
	"mmreliable/internal/pool"
	"mmreliable/internal/sim"
	"mmreliable/internal/stats"
)

// ExtensionCluster is the multi-cell CoMP experiment (internal/cluster): it
// sweeps the number of cooperating gNB cells serving a fixed UE population
// in the shared hall, with a deep body blocker crossing every UE's
// initially-nearest link mid-run, and reports serving-leg reliability
// (handover-only deployment), selection-diversity reliability (the
// macro-diversity bound), and the worst blackout length under each. One
// cell has nowhere to run when its only link is shadowed — reliability
// collapses for the blockage dwell. From two cells up, the hot standby
// covers the detection latency and the diversity bound recovers ≥ 0.999,
// the paper's §7 reliability target lifted from two beams on one array to
// two cells in one hall.
//
// Each row rebuilds the cluster from the same UE drop: UE u's pair streams
// are derived from (Seed, labelExtCluster folded through the cluster's own
// namespace, u, cell), so adding cells is a controlled comparison, and the
// table is byte-identical for any Workers value (the cluster's determinism
// contract).
func ExtensionCluster(cfg Config) *stats.Table {
	cells := []int{1, 2, 3, 4}
	ues := 4
	duration := 1.0
	if cfg.Quick {
		cells = []int{1, 2}
		ues = 2
		duration = 0.8
	}
	t := stats.NewTable(
		"Extension E6 — multi-cell macro-diversity under serving-link blockage",
		"cells", "rel_serving", "rel_diversity", "out_ms", "div_out_ms", "handovers", "pingpong", "overhead_pct")
	p := pool.New(cfg.workers())
	defer p.Close()
	for _, n := range cells {
		e, poses := env.MultiCellHall(env.Band28GHz(), n)
		ccfg := cluster.DefaultConfig()
		ccfg.Seed = cfg.trialSeed(labelExtCluster, 0)
		cl, err := cluster.New(nr.Mu3(), ccfg, cluster.Deployment{
			Env: e, Cells: poses, Budget: sim.IndoorBudget(),
		}, p)
		if err != nil {
			panic(err)
		}
		for i, pos := range env.HallUEPositions(ues) {
			blk := make([]events.Schedule, n)
			depth := 35.0
			blk[nearestCellIdx(poses, pos)] = events.Schedule{{
				AllPaths: true,
				Start:    0.30 + 0.02*float64(i%7),
				Duration: 0.30,
				DepthDB:  depth,
				RampTime: events.RampFor(depth),
			}}
			if _, err := cl.AddUE(cluster.UEConfig{Pos: pos, Blockage: blk}); err != nil {
				panic(err)
			}
		}
		res := cl.Run(duration)
		t.AddRow(fmt.Sprintf("%d", n),
			stats.Fmt(res.MeanServingReliability), stats.Fmt(res.MeanDiversityReliability),
			stats.Fmt(res.MaxOutageMs), stats.Fmt(res.DivMaxOutageMs),
			fmt.Sprintf("%d", res.Counters.Handovers), fmt.Sprintf("%d", res.Counters.PingPongs),
			stats.Fmt(res.OverheadPct))
	}
	return t
}

// nearestCellIdx returns the index of the gNB pose closest to pos — the
// cell whose link the UE's blocker crosses (the initially serving link).
func nearestCellIdx(poses []env.Pose, pos env.Vec2) int {
	best, bestD := 0, math.Inf(1)
	for i, p := range poses {
		if d := p.Pos.Dist(pos); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
