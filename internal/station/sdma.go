package station

import (
	"math"

	"mmreliable/internal/hybrid"
	"mmreliable/internal/link"
	"mmreliable/internal/scratch"
	"mmreliable/internal/sim"
)

// This file extends the scheduler from "who gets probes" to "who shares a
// slot": the hybrid tier's SDMA planner. At every frame barrier the
// coordinator partitions the active sessions into scheduling units — each
// unit either a single session (TDMA) or a greedily-grown group of up to
// Chains angularly-separated sessions — and airtime rotates round-robin
// across units: slot k of frame f belongs to unit (f·spf+k) mod numUnits.
// Inside an owned slot a group runs the digital MMSE combiner and every
// member transmits simultaneously at SINR; a non-owned data slot records
// zero throughput (the airtime cost of sharing one radio). All planning
// reads only barrier-published per-session state, so the byte-identical
// at-any-worker-count contract is untouched.

// sdmaMaxChains bounds the per-slot group size (and the fixed-size
// planner/group scratch arrays).
const sdmaMaxChains = 8

// planFrameUnits rebuilds the frame's scheduling units. Coordinator-only,
// allocation-free: units and unitStore are capped at MaxSessions and every
// session appears in exactly one unit.
//
// Greedy policy, in active (admission) order: the first unassigned session
// leads a new unit; with Chains ≥ 2 and a tracked AoD on the lead, later
// unassigned sessions join if (a) they also track an AoD, (b) their link
// budget matches the lead's (one transmit power split cleanly), (c) their
// AoD clears MinSeparationDeg against EVERY current member, and (d) the
// whole candidate group — existing members included — re-checks above
// MinSINRdB under the pessimistic analog-leakage prediction. Sessions that
// fail (c) or (d) stay eligible to lead or join later units: TDMA is the
// fallback, never starvation.
func (st *Station) planFrameUnits() {
	if !st.sdmaOn {
		return
	}
	st.units = st.units[:0]
	st.unitStore = st.unitStore[:0]
	n := len(st.active)
	for i := 0; i < n; i++ {
		st.sdmaAssigned[i] = false
	}
	minSep := st.cfg.SDMA.MinSeparationDeg * math.Pi / 180
	chains := st.cfg.SDMA.Chains
	for i := 0; i < n; i++ {
		if st.sdmaAssigned[i] {
			continue
		}
		base := len(st.unitStore)
		st.unitStore = append(st.unitStore, i)
		st.sdmaAssigned[i] = true
		lead := st.active[i]
		if chains >= 2 {
			if aod, ok := lead.mgr.TrackedAoD(); ok {
				var aods, snrs [sdmaMaxChains]float64
				aods[0], snrs[0] = aod, lead.lastSNR
				k := 1
				for j := i + 1; j < n && k < chains; j++ {
					if st.sdmaAssigned[j] {
						continue
					}
					cand := st.active[j]
					caod, ok := cand.mgr.TrackedAoD()
					if !ok || cand.budget != lead.budget {
						continue
					}
					sepOK := true
					for m := 0; m < k; m++ {
						if hybrid.AngularGap(aods[m], caod) < minSep {
							sepOK = false
							break
						}
					}
					if !sepOK {
						st.counters.SDMAPairRejects++
						continue
					}
					aods[k], snrs[k] = caod, cand.lastSNR
					groupOK := true
					for m := 0; m <= k; m++ {
						if hybrid.PredictSINRdB(lead.sc.TxArray, aods[:k+1], snrs[:k+1], m) < st.cfg.SDMA.MinSINRdB {
							groupOK = false
							break
						}
					}
					if !groupOK {
						st.counters.SDMAPairRejects++
						continue
					}
					st.unitStore = append(st.unitStore, j)
					st.sdmaAssigned[j] = true
					k++
				}
				if k >= 2 {
					st.counters.SDMAGroups++
				}
			}
		}
		st.units = append(st.units, st.unitStore[base:len(st.unitStore)])
	}
}

// ownsSlot reports whether unit unitIdx owns slot k of the current frame
// under the round-robin airtime rotation.
func (st *Station) ownsSlot(unitIdx, numUnits, k int) bool {
	return (st.frame*st.slotsPerFrame+k)%numUnits == unitIdx
}

// runFrameShared is runFrame for a singleton unit under the shared-airtime
// model: identical stepping, but data slots outside the unit's airtime
// share record zero throughput. Training slots are untouched — beam
// management runs on its own cadence regardless of who owns the slot.
func (ss *Session) runFrameShared(st *Station, t0 float64, ws *scratch.Workspace, unitIdx, numUnits int) {
	ws.Reset()
	ss.mgr.UseWorkspace(ws)
	if ss.frameSlots != nil {
		ss.frameSlots = ss.frameSlots[:0]
	}
	warmupEnd := ss.effectiveAttach + st.cfg.Warmup
	for k := 0; k < st.slotsPerFrame; k++ {
		t := t0 + float64(k)*st.slotDur
		ss.sc.ChannelInto(t, ss.model)
		slot := ss.mgr.Step(t, ss.model)
		if !slot.Training && !st.ownsSlot(unitIdx, numUnits, k) {
			slot.ThroughputBps = 0
		}
		if ss.frameSlots != nil {
			ss.frameSlots = append(ss.frameSlots, slot)
		}
		if t >= warmupEnd {
			ss.meter.Record(slot.SNRdB, slot.Training, slot.ThroughputBps)
		}
		ss.observe(slot.SNRdB)
		ss.slotsRun++
	}
}

// runGroupFrame steps a multi-member unit through one frame. All members'
// managers advance every slot (training cadences, tracking, and channel
// evolution are airtime-independent); in the unit's owned slots the
// established, non-training members transmit simultaneously through the
// digital MMSE combiner and their slot outcome is rewritten to SINR-driven
// throughput. The scheduler's SNR-drop estimator always sees the own-beam
// SNR, never the SINR — probe arbitration stays a per-link concern.
func (st *Station) runGroupFrame(unitIdx int, unit []int, t0 float64, ws *scratch.Workspace, cb *hybrid.Combiner) {
	ws.Reset()
	numUnits := len(st.units)
	for _, idx := range unit {
		ss := st.active[idx]
		ss.mgr.UseWorkspace(ws)
		if ss.frameSlots != nil {
			ss.frameSlots = ss.frameSlots[:0]
		}
	}
	var slots [sdmaMaxChains]sim.Slot
	var ownSNR [sdmaMaxChains]float64
	var ntIdx [sdmaMaxChains]int
	for k := 0; k < st.slotsPerFrame; k++ {
		t := t0 + float64(k)*st.slotDur
		for m, idx := range unit {
			ss := st.active[idx]
			ss.sc.ChannelInto(t, ss.model)
			slots[m] = ss.mgr.Step(t, ss.model)
			ownSNR[m] = slots[m].SNRdB
		}
		if st.ownsSlot(unitIdx, numUnits, k) {
			nt := 0
			for m, idx := range unit {
				if !slots[m].Training && st.active[idx].mgr.ActiveWeightsView() != nil {
					ntIdx[nt] = m
					nt++
				}
			}
			if nt >= 2 {
				st.combineSlot(unit, ntIdx[:nt], slots[:len(unit)], cb)
			}
			// nt ≤ 1: degenerate share (members training or unestablished);
			// whoever has a beam keeps its single-user slot as-is.
		} else {
			for m := range unit {
				if !slots[m].Training {
					slots[m].ThroughputBps = 0
				}
			}
		}
		for m, idx := range unit {
			ss := st.active[idx]
			if ss.frameSlots != nil {
				ss.frameSlots = append(ss.frameSlots, slots[m])
			}
			if t >= ss.effectiveAttach+st.cfg.Warmup {
				ss.meter.Record(slots[m].SNRdB, slots[m].Training, slots[m].ThroughputBps)
			}
			ss.observe(ownSNR[m])
			ss.slotsRun++
		}
	}
}

// combineSlot runs the digital MMSE stage for the nt co-transmitting
// members (indices ntIdx into unit/slots) of one owned slot, rewriting
// their slot outcomes to SINR-driven throughput. On a degenerate channel
// (Solve failure) the members keep their single-user outcomes — the slot
// silently falls back to the analog tier.
func (st *Station) combineSlot(unit []int, ntIdx []int, slots []sim.Slot, cb *hybrid.Combiner) {
	nt := len(ntIdx)
	if err := cb.Begin(nt); err != nil {
		return
	}
	lead := st.active[unit[ntIdx[0]]]
	offs := lead.mgr.Offsets()
	for a := 0; a < nt; a++ {
		sa := st.active[unit[ntIdx[a]]]
		for b := 0; b < nt; b++ {
			sb := st.active[unit[ntIdx[b]]]
			re, im := cb.Entry(a, b)
			sa.model.EffectiveWidebandSplitInto(sb.mgr.ActiveWeightsView(), offs, re, im)
		}
	}
	if err := cb.Solve(lead.txLin, lead.noiseLin); err != nil {
		return
	}
	for a := 0; a < nt; a++ {
		m := ntIdx[a]
		ss := st.active[unit[m]]
		sinr := cb.UserSINRdB(a, ss.txLin, ss.noiseLin)
		slots[m].SNRdB = sinr
		slots[m].ThroughputBps = link.Throughput(sinr, ss.budget.BandwidthHz, 0)
		ss.sdmaSlots++
	}
}

// runUnitAt steps scheduling unit i on worker w with that worker's
// scratch arena and combiner (nil below two chains).
func (st *Station) runUnitAt(w, i int) {
	var cb *hybrid.Combiner
	if st.combiners != nil {
		cb = st.combiners[w]
	}
	st.runUnit(i, st.units[i], st.runT0, st.ws[w], cb)
}

// runUnit dispatches one scheduling unit.
func (st *Station) runUnit(unitIdx int, unit []int, t0 float64, ws *scratch.Workspace, cb *hybrid.Combiner) {
	if len(unit) == 1 {
		st.active[unit[0]].runFrameShared(st, t0, ws, unitIdx, len(st.units))
		return
	}
	st.runGroupFrame(unitIdx, unit, t0, ws, cb)
}
