// Package stationcli is the shared runner behind cmd/mmstation and
// cmd/mmhybrid: one scenario-population builder and one output formatter,
// so the two CLIs cannot drift apart. The hybrid CLI is the station CLI
// plus an SDMA configuration — with MMR_HYBRID=off (or Chains = 0) the
// extra summary line disappears and the stdout is byte-for-byte the legacy
// station output, which is exactly the CI oracle diff.
package stationcli

import (
	"fmt"
	"io"

	"mmreliable/internal/hybrid"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/pool"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
	"mmreliable/internal/station"
	"mmreliable/internal/stats"
)

// Options is the flag surface of the station-family CLIs.
type Options struct {
	UEs         int
	Scenario    string // sim.Named set, "mixed", or "spread"
	Budget      int
	FrameMS     float64
	Duration    float64
	Seed        int64
	Workers     int // session-stepping pool size (0 = GOMAXPROCS)
	MaxSessions int
	Churn       bool
	PerUE       bool
	// SDMA is the hybrid tier configuration; the zero value (and
	// MMR_HYBRID=off regardless) reproduces the legacy station output.
	SDMA station.SDMAConfig
}

// Scenarios documents the -scenario values the runner accepts.
const Scenarios = "mixed | spread | indoor | indoor-mobile | outdoor | walking-blocker | small-spread | rotating-ue"

// mkScenario builds session id's world. "mixed" alternates static-indoor /
// walking-blocker (the CI determinism workload); "spread" fans the UEs
// across a ±40° arc of distinct AoDs (the SDMA workload); everything else
// is the sim.Named set.
func (o Options) mkScenario(id int, sseed int64) (*sim.Scenario, link.Budget, error) {
	switch o.Scenario {
	case "mixed":
		if id%2 == 0 {
			return sim.StaticIndoor(sseed), sim.IndoorBudget(), nil
		}
		return sim.WalkingBlockerIndoor(sseed), sim.IndoorBudget(), nil
	case "spread":
		frac := 0.5
		if o.UEs > 1 {
			frac = float64(id) / float64(o.UEs-1)
		}
		return sim.SpreadStaticIndoor(sseed, frac), sim.IndoorBudget(), nil
	default:
		return sim.Named(o.Scenario, sseed)
	}
}

// Run executes the configured station and renders the results to w.
func Run(w io.Writer, o Options) error {
	cfg := station.DefaultConfig()
	cfg.ProbeBudget = o.Budget
	cfg.FramePeriod = o.FrameMS * 1e-3
	cfg.MaxSessions = o.MaxSessions
	cfg.SDMA = o.SDMA

	p := pool.New(o.Workers)
	defer p.Close()
	st, err := station.New(nr.Mu3(), cfg, p)
	if err != nil {
		return err
	}
	for i := 0; i < o.UEs; i++ {
		sseed := seeds.Mix(o.Seed, 981, int64(i))
		sc, bud, err := o.mkScenario(i, sseed)
		if err != nil {
			return err
		}
		scfg := station.SessionConfig{Scenario: sc, Budget: bud, Seed: sseed}
		if o.Churn {
			if i%4 == 3 {
				scfg.AttachAt = 0.3 * o.Duration
			}
			if i%5 == 4 {
				scfg.DetachAt = 0.7 * o.Duration
			}
		}
		if _, err := st.Attach(scfg); err != nil {
			return err
		}
	}

	res := st.Run(o.Duration)
	c := res.Counters

	fmt.Fprintf(w, "station: %d UEs, scenario %s, %.1f s, budget %d grants/frame, frame %.1f ms (seed %d)\n",
		o.UEs, o.Scenario, o.Duration, o.Budget, o.FrameMS, o.Seed)
	fmt.Fprintf(w, "frames %d  session-slots %d  admitted %d  rejected %d  detached %d\n",
		c.Frames, c.SessionSlots, c.AttachesAdmitted, c.AttachesRejected, c.Detaches)
	fmt.Fprintf(w, "probes %d  grants %d  denials %d  preemptions %d  realigns %d  retrains %d  training-slots %d\n",
		c.ProbesIssued, c.Grants, c.BudgetDenials, c.Preemptions, c.Realigns, c.Retrains, c.TrainingSlots)
	overheadPct := 0.0
	if c.SessionSlots > 0 {
		overheadPct = 100 * float64(c.TrainingSlots) / float64(c.SessionSlots)
	}
	fmt.Fprintf(w, "mean reliability %s  median SNR %s dB  training overhead %s%%  min/max grant ratio %s\n",
		stats.Fmt(res.MeanReliability), stats.Fmt(res.MedianSNRdB),
		stats.Fmt(overheadPct), stats.Fmt(res.MinMaxGrantRatio))
	if hybrid.Enabled && o.SDMA.Chains >= 1 {
		fmt.Fprintf(w, "sdma: chains %d  groups %d  pair-rejects %d  combined-slots %d  sum-throughput %s Mbps\n",
			o.SDMA.Chains, c.SDMAGroups, c.SDMAPairRejects, c.SDMASlots, stats.Fmt(res.SumThroughputBps/1e6))
	}

	if o.PerUE {
		table := stats.NewTable("per-UE results",
			"ue", "state", "slots", "reliability", "snr_dB", "thr_Mbps", "grants", "denials", "preempt", "retrain")
		for _, ur := range res.PerUE {
			s := ur.Summary
			table.AddRow(fmt.Sprintf("%03d", ur.ID), ur.State, fmt.Sprintf("%d", ur.Slots),
				stats.Fmt(s.Reliability), stats.Fmt(s.MeanSNRdB), stats.Fmt(s.MeanThroughput/1e6),
				fmt.Sprintf("%d", ur.Grants), fmt.Sprintf("%d", ur.BudgetDenials),
				fmt.Sprintf("%d", ur.Preemptions), fmt.Sprintf("%d", ur.Retrains))
		}
		table.Render(w)
	}
	return nil
}
