// Command mmcluster runs the multi-cell CoMP cluster layer
// (internal/cluster): several gNB stations at distinct poses in one shared
// hall cooperatively serve a common UE population. Every UE holds a serving
// plus a hot-standby session (dual connectivity), wide-beam monitor probes
// rank the non-attached cells, and a frame-synchronous coordinator executes
// blockage-driven handovers with hysteresis and time-to-trigger.
//
// Usage:
//
//	mmcluster -cells 2 -ues 4 -blockage -duration 1
//	mmcluster -cells 4 -ues 32 -churn -blockage -workers 8
//	mmcluster -cells 3 -ues 8 -seed 7 -per-ue
//
// Every (UE, cell) pair replays its own deterministic world (seeded via
// seeds.Mix from -seed), all cross-cell decisions happen single-threaded at
// frame boundaries, and the output carries no wall-clock or host-dependent
// fields — so stdout is byte-identical for any -workers value. CI diffs
// -workers 1 against -workers 8 on a 4-cell churn+blockage run, and
// MMR_INCREMENTAL=off against the default incremental engine.
//
// -cpuprofile / -memprofile write pprof profiles of the run (see the README
// "Profiling the metro loop").
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"mmreliable/internal/cluster"
	"mmreliable/internal/core"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/nr"
	"mmreliable/internal/pool"
	"mmreliable/internal/sim"
	"mmreliable/internal/stats"
)

// nearestCell returns the index of the gNB pose closest to pos — the cell a
// blocker crossing the UE's initially serving link shadows.
func nearestCell(poses []env.Pose, pos env.Vec2) int {
	best, bestD := 0, math.Inf(1)
	for i, p := range poses {
		if d := p.Pos.Dist(pos); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func main() {
	cells := flag.Int("cells", 2, "number of cooperating gNB cells in the hall")
	ues := flag.Int("ues", 4, "number of UEs dropped on the hall lattice")
	duration := flag.Float64("duration", 0.5, "simulated duration in seconds (warmup included)")
	seed := flag.Int64("seed", 1, "base seed; per-pair streams are derived via seeds.Mix")
	workers := flag.Int("workers", 0, "worker goroutines stepping sessions, shared by every cell (0 = GOMAXPROCS); output is identical for any value")
	budget := flag.Int("budget", cluster.DefaultConfig().Station.ProbeBudget, "per-cell probe grants per frame (0 = unlimited); monitor probes are charged against it")
	blockage := flag.Bool("blockage", false, "deep body blocker crossing each UE's nearest-cell link, onset staggered per UE")
	churn := flag.Bool("churn", false, "mid-run churn: every 4th UE attaches at 0.3×duration, every 5th detaches at 0.7×duration")
	perUE := flag.Bool("per-ue", false, "print the per-UE result table")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
	memProfile := flag.String("memprofile", "", "write an allocation (heap) profile to this file at exit")
	showVersion := flag.Bool("version", false, "print version/build info and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(core.Version("mmcluster"))
		return
	}
	if err := core.CheckFlags("mmcluster",
		core.IntAtLeast("cells", *cells, 1),
		core.IntAtLeast("ues", *ues, 1),
		core.FloatPositive("duration", *duration),
		core.IntAtLeast("workers", *workers, 0),
		core.IntAtLeast("budget", *budget, 0),
	); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	e, poses := env.MultiCellHall(env.Band28GHz(), *cells)
	cfg := cluster.DefaultConfig()
	cfg.Seed = *seed
	cfg.Station.ProbeBudget = *budget
	p := pool.New(*workers)
	defer p.Close()
	cl, err := cluster.New(nr.Mu3(), cfg, cluster.Deployment{
		Env: e, Cells: poses, Budget: sim.IndoorBudget(),
	}, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i, pos := range env.HallUEPositions(*ues) {
		ucfg := cluster.UEConfig{Pos: pos}
		if *blockage {
			blk := make([]events.Schedule, *cells)
			depth := 35.0
			blk[nearestCell(poses, pos)] = events.Schedule{{
				AllPaths: true,
				Start:    (0.30 + 0.02*float64(i%7)) * *duration,
				Duration: 0.30 * *duration,
				DepthDB:  depth,
				RampTime: events.RampFor(depth),
			}}
			ucfg.Blockage = blk
		}
		if *churn {
			if i%4 == 3 {
				ucfg.AttachAt = 0.3 * *duration
			}
			if i%5 == 4 {
				ucfg.DetachAt = 0.7 * *duration
			}
		}
		if _, err := cl.AddUE(ucfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	res := cl.Run(*duration)
	c := res.Counters

	fmt.Printf("cluster: %d cells, %d UEs, %.1f s, budget %d grants/frame/cell (seed %d)\n",
		*cells, *ues, *duration, *budget, *seed)
	fmt.Printf("frames %d  attached %d  finished %d  deferrals %d\n",
		c.Frames, c.UEsAttached, c.UEsFinished, c.AdmissionDeferrals)
	fmt.Printf("handovers %d  ping-pongs %d  standby-retargets %d  monitor rounds %d probes %d\n",
		c.Handovers, c.PingPongs, c.StandbyRetargets, c.MonitorRounds, c.MonitorProbes)
	fmt.Printf("serving reliability %s  diversity reliability %s  overhead %s%%\n",
		stats.Fmt(res.MeanServingReliability), stats.Fmt(res.MeanDiversityReliability),
		stats.Fmt(res.OverheadPct))
	fmt.Printf("serving max outage %s ms  diversity max outage %s ms  agg throughput %s / %s Mbps\n",
		stats.Fmt(res.MaxOutageMs), stats.Fmt(res.DivMaxOutageMs),
		stats.Fmt(res.AggThroughputBps/1e6), stats.Fmt(res.AggDiversityThroughputBps/1e6))

	if *perUE {
		table := stats.NewTable("per-UE results",
			"ue", "cell", "ho", "pp", "rel_serv", "rel_div", "snr_dB", "out_ms", "divout_ms")
		for _, u := range res.PerUE {
			table.AddRow(fmt.Sprintf("%03d", u.ID), fmt.Sprintf("%d", u.ServingCell),
				fmt.Sprintf("%d", u.Handovers), fmt.Sprintf("%d", u.PingPongs),
				stats.Fmt(u.Serving.Reliability), stats.Fmt(u.Diversity.Reliability),
				stats.Fmt(u.Serving.MeanSNRdB),
				stats.Fmt(u.MaxOutageMs), stats.Fmt(u.DivMaxOutageMs))
		}
		table.Render(os.Stdout)
	}
}
