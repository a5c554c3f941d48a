package station

import (
	"math"
	"testing"

	"mmreliable/internal/nr"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
)

// newBatchedStation builds a station with unlimited probe tokens so every
// established session is eligible for the frame-entry batch pass.
func newBatchedStation(t *testing.T, workers int) *Station {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ProbeBudget = 0
	st, err := New(nr.Mu3(), cfg, newPool(t, workers))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 4; i++ {
		s := seeds.Mix(61, int64(i))
		if _, err := st.Attach(SessionConfig{
			Scenario: sim.StaticIndoor(s),
			Budget:   sim.IndoorBudget(),
			Seed:     s,
		}); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	return st
}

// TestBatchFrameEntrySnapshot pins the frame-barrier batch pass: once
// sessions are established, every frame snapshots a finite wideband entry
// SNR per session, stamped with the executing frame's index, and the
// counter tracks the batched row count.
func TestBatchFrameEntrySnapshot(t *testing.T) {
	st := newBatchedStation(t, 1)
	for i := 0; i < 20; i++ {
		st.AdvanceFrame()
	}
	if st.counters.BatchedEntryEvals == 0 {
		t.Fatal("no batched entry evaluations after 20 frames")
	}
	for id := 0; id < 4; id++ {
		snr, frame := st.SessionFrameEntrySNRdB(id)
		if frame != st.Frame()-1 {
			t.Fatalf("session %d: entry snapshot from frame %d, want %d", id, frame, st.Frame()-1)
		}
		if math.IsInf(snr, 0) || math.IsNaN(snr) {
			t.Fatalf("session %d: entry SNR %g not finite", id, snr)
		}
	}
	if _, frame := st.SessionFrameEntrySNRdB(99); frame != -1 {
		t.Fatal("out-of-range session id did not report frame -1")
	}
}

// TestBatchFrameEntryWorkerInvariance pins the batch pass to the station's
// determinism contract: the entry snapshots (and everything else the
// station reports) must be identical at any worker count, because the
// batch runs coordinator-side at the barrier and feeds nothing back into
// scheduling.
func TestBatchFrameEntryWorkerInvariance(t *testing.T) {
	s1 := newBatchedStation(t, 1)
	s8 := newBatchedStation(t, 8)
	for i := 0; i < 25; i++ {
		s1.AdvanceFrame()
		s8.AdvanceFrame()
	}
	for id := 0; id < 4; id++ {
		a, fa := s1.SessionFrameEntrySNRdB(id)
		b, fb := s8.SessionFrameEntrySNRdB(id)
		if a != b || fa != fb {
			t.Fatalf("session %d: workers=1 (%g, %d) vs workers=8 (%g, %d)", id, a, fa, b, fb)
		}
	}
	r1, r8 := s1.Results(), s8.Results()
	if r1.Counters != r8.Counters {
		t.Fatalf("counters diverge across worker counts:\n1: %+v\n8: %+v", r1.Counters, r8.Counters)
	}
}
