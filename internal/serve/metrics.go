package serve

import (
	"bytes"
	"fmt"
	"strconv"
)

// metricsText renders the Prometheus text exposition (format 0.0.4) from
// the O(sites) aggregates only: summed cluster counters, summed station
// counters, and the O(shards) sketch merge of harvested UEs. No per-UE or
// per-session walk happens here — a scrape costs the same whether the city
// has served a hundred UE-sessions or a hundred thousand. Loop-owned.
func (s *Server) metricsText() string {
	var b bytes.Buffer
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n",
			name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	// bySite appends one site-labeled series per cluster site to the family
	// whose header the preceding gauge/counter call just wrote. Sites render
	// in index order, from the per-site aggregates the metro maintains
	// alongside its shard sketches, so the whole exposition stays O(sites)
	// and byte-identical at any worker count.
	bySite := func(name string, v func(site int) float64) {
		for i := 0; i < s.m.Sites(); i++ {
			fmt.Fprintf(&b, "%s{site=\"%d\"} %s\n",
				name, i, strconv.FormatFloat(v(i), 'g', -1, 64))
		}
	}

	gauge("mmserved_frame", "Next metro frame index.", float64(s.m.Frame()))
	gauge("mmserved_sim_seconds", "Simulated time at the last boundary.",
		float64(s.m.Frame())*s.m.FramePeriod())
	gauge("mmserved_sites", "Cluster sites in the city.", float64(s.cfg.Metro.Clusters))
	gauge("mmserved_cells", "Total gNB cells.", float64(s.m.Cells()))
	gauge("mmserved_resident_ues", "UEs currently resident.", float64(s.m.ResidentUEs()))
	gauge("mmserved_active_sessions", "Attached station sessions.", float64(s.m.ActiveSessions()))
	bySite("mmserved_active_sessions", func(i int) float64 {
		return float64(s.m.SiteActiveSessions(i))
	})
	gauge("mmserved_journal_commands", "External commands applied and journaled.", float64(len(s.journal)))
	gauge("mmserved_script_errors", "Scripted commands that failed to apply.", float64(s.scriptErrs))

	cc := s.m.CountersTotal()
	counter("mmserved_handovers_total", "Serving-standby promotions.", float64(cc.Handovers))
	counter("mmserved_pingpongs_total", "Handovers returning within the ping-pong window.", float64(cc.PingPongs))
	counter("mmserved_standby_retargets_total", "Standby legs re-pointed at stronger cells.", float64(cc.StandbyRetargets))
	counter("mmserved_monitor_rounds_total", "Wide-beam monitor rounds.", float64(cc.MonitorRounds))
	counter("mmserved_monitor_probes_total", "Wide-beam monitor probes.", float64(cc.MonitorProbes))
	counter("mmserved_monitor_rows_reused_total", "Monitor probes replayed from the incremental engine's row cache (cache hits; 0 with MMR_INCREMENTAL=off).", float64(cc.MonitorRowsReused))
	counter("mmserved_ues_attached_total", "UE admissions.", float64(cc.UEsAttached))
	counter("mmserved_ues_finished_total", "UE departures.", float64(cc.UEsFinished))
	counter("mmserved_admission_deferrals_total", "Arrivals deferred to a later boundary.", float64(cc.AdmissionDeferrals))

	sc := s.m.StationCountersTotal()
	counter("mmserved_session_slots_total", "Session-slots stepped.", float64(sc.SessionSlots))
	counter("mmserved_probes_issued_total", "Sounder probes fired.", float64(sc.ProbesIssued))
	counter("mmserved_grants_total", "Probe tokens consumed.", float64(sc.Grants))
	counter("mmserved_budget_denials_total", "Sounding opportunities denied by budget.", float64(sc.BudgetDenials))
	counter("mmserved_preemptions_total", "Emergency rounds charged to the next frame.", float64(sc.Preemptions))
	counter("mmserved_realigns_total", "Beam refinements.", float64(sc.Realigns))
	counter("mmserved_retrains_total", "Full retrainings.", float64(sc.Retrains))
	counter("mmserved_training_slots_total", "Slots consumed by beam management.", float64(sc.TrainingSlots))

	sk := s.m.SketchTotal()
	counter("mmserved_harvested_ues_total", "Finished UE-sessions folded into the sketches.", float64(sk.UEs))
	bySite("mmserved_harvested_ues_total", func(i int) float64 {
		return float64(s.m.SiteSketch(i).UEs)
	})
	counter("mmserved_harvested_measured_total", "Harvested UEs with at least one measured slot.", float64(sk.Measured))
	gauge("mmserved_harvested_serving_reliability", "Serving-leg reliability over harvested UEs.", sk.Serving().Reliability)
	bySite("mmserved_harvested_serving_reliability", func(i int) float64 {
		return s.m.SiteSketch(i).Serving().Reliability
	})
	gauge("mmserved_harvested_diversity_reliability", "Selection-diversity reliability over harvested UEs.", sk.Diversity().Reliability)
	bySite("mmserved_harvested_diversity_reliability", func(i int) float64 {
		return s.m.SiteSketch(i).Diversity().Reliability
	})
	gauge("mmserved_harvested_serving_throughput_bps", "Mean serving-leg throughput over harvested UEs.", sk.Serving().MeanThroughput)
	gauge("mmserved_worst_outage_ms", "Longest single outage episode any harvested UE saw.", sk.WorstOutageMs)
	fmt.Fprintf(&b, "# HELP mmserved_harvested_rel_hist Harvested UEs by serving reliability decile.\n# TYPE mmserved_harvested_rel_hist gauge\n")
	for bin, n := range sk.RelHist {
		fmt.Fprintf(&b, "mmserved_harvested_rel_hist{bin=\"%d\"} %d\n", bin, n)
	}
	return b.String()
}
