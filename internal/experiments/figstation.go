package experiments

import (
	"fmt"

	"mmreliable/internal/nr"
	"mmreliable/internal/pool"
	"mmreliable/internal/sim"
	"mmreliable/internal/station"
	"mmreliable/internal/stats"
)

// ExtensionStation is the multi-UE capacity experiment for the station
// serving engine (internal/station): it sweeps the number of concurrently
// served UEs under one fixed per-frame probe budget and reports how
// per-link reliability, SNR, aggregate training overhead, and grant
// fairness hold up as the cell fills — the paper's §5 low-overhead claim
// lifted from one link to a serving cell. Half the UEs are static indoor
// links, half face a walking blocker, so the scheduler arbitrates between
// quiescent and emergency traffic.
//
// Each row builds its station fresh; UE i's scenario/sounder stream is
// derived from (Seed, labelExtStation, i) and therefore identical across
// rows — adding UEs is a controlled comparison, and the table is
// byte-identical for any Workers value (the station's own determinism
// contract).
func ExtensionStation(cfg Config) *stats.Table {
	ues := []int{4, 8, 16, 32}
	duration := 0.5
	if cfg.Quick {
		ues = []int{2, 4, 8}
		duration = 0.3
	}
	scfg := station.DefaultConfig()
	p := pool.New(cfg.workers())
	defer p.Close()
	t := stats.NewTable(
		fmt.Sprintf("Extension E5 — serving-cell capacity under a %d-grant/frame probe budget",
			scfg.ProbeBudget),
		"ues", "reliability", "median_snr_dB", "overhead_pct", "grants", "denials", "preempt", "minmax_grant")
	for _, n := range ues {
		st, err := station.New(nr.Mu3(), scfg, p)
		if err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			seed := cfg.trialSeed(labelExtStation, i)
			var sc *sim.Scenario
			if i%2 == 0 {
				sc = sim.StaticIndoor(seed)
			} else {
				sc = sim.WalkingBlockerIndoor(seed)
			}
			if _, err := st.Attach(station.SessionConfig{
				Scenario: sc,
				Budget:   sim.IndoorBudget(),
				Seed:     seed,
			}); err != nil {
				panic(err)
			}
		}
		res := st.Run(duration)
		c := res.Counters
		overheadPct := 0.0
		if c.SessionSlots > 0 {
			overheadPct = 100 * float64(c.TrainingSlots) / float64(c.SessionSlots)
		}
		t.AddRow(fmt.Sprintf("%d", n), stats.Fmt(res.MeanReliability),
			stats.Fmt(res.MedianSNRdB), stats.Fmt(overheadPct),
			fmt.Sprintf("%d", c.Grants), fmt.Sprintf("%d", c.BudgetDenials),
			fmt.Sprintf("%d", c.Preemptions), stats.Fmt(res.MinMaxGrantRatio))
	}
	return t
}
