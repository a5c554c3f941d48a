package station

import (
	"testing"

	"mmreliable/internal/nr"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"

	"mmreliable/internal/core/manager"
)

// schedTestStation builds a 2-session station on static channels, runs it
// long enough for both managers to establish, and returns it ready for
// direct scheduleFrame/harvestFrame driving (the tests below bypass
// runSessions so they can pin scheduler decisions frame by frame without
// channel noise perturbing the priority inputs).
func schedTestStation(t *testing.T, mutate func(*Config)) *Station {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := New(nr.Mu3(), cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 2; i++ {
		s := seeds.Mix(31, int64(i))
		if _, err := st.Attach(SessionConfig{
			Scenario: sim.StaticIndoor(s), Budget: sim.IndoorBudget(), Seed: s,
		}); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	for i := 0; i < 10; i++ { // past initial training
		st.AdvanceFrame()
	}
	for _, ss := range st.active {
		if !ss.mgr.Established() {
			t.Fatalf("session %d not established after 10 frames", ss.id)
		}
	}
	return st
}

// TestAgingBoostUnblocks pins the starvation guard at the decision level:
// session 0 carries a huge SNR-drop signal, so on pure staleness×drop
// priority it wins the single-token budget every frame. AgingBoost must
// lift the perpetually denied session 1 above it within a handful of
// frames — and with AgingBoost disabled the same contention keeps session 1
// denied far longer.
func TestAgingBoostUnblocks(t *testing.T) {
	framesToFirstWin := func(boost float64, limit int) int {
		st := schedTestStation(t, func(c *Config) {
			c.ProbeBudget = 1
			c.AgingBoost = boost
		})
		a, b := st.active[0], st.active[1]
		// Freeze the EWMA state: A looks like it is sliding into blockage
		// (drop = 25 dB), B is steady. Sessions are not stepped, so observe()
		// never overwrites these.
		a.ewmaSlow, a.ewmaFast, a.haveEWMA = 30, 5, true
		b.ewmaSlow, b.ewmaFast, b.haveEWMA = 20, 20, true
		for f := 1; f <= limit; f++ {
			// t1 far in the future: every established session wants a
			// maintenance token this frame (steady contention).
			st.scheduleFrame(1e9)
			winner := -1
			for i, ss := range st.active {
				if ss.grant.tokens > 0 && ss.grant.reserveMaintain {
					if winner >= 0 {
						t.Fatalf("budget 1 granted two maintenance reservations (frame %d)", f)
					}
					// Simulate the session consuming its maintenance grant.
					ss.grant.Grant(0, manager.ProbeMaintain)
					winner = i
				}
			}
			if winner < 0 {
				t.Fatalf("frame %d: nobody won the token", f)
			}
			st.harvestFrame()
			st.frame++
			if winner == 1 {
				return f
			}
		}
		return limit + 1
	}
	// drop=25 ⇒ A's post-grant priority is 1×(1+25)=26 every frame. With
	// AgingBoost=10 session B reaches 26 in ⌈26/11⌉=3 frames; with the boost
	// off it needs 26 frames of pure staleness.
	boosted := framesToFirstWin(10, 8)
	if boosted > 8 {
		t.Fatalf("AgingBoost=10: denied session never won within 8 frames")
	}
	unaged := framesToFirstWin(0, 10)
	if unaged <= 10 {
		t.Fatalf("AgingBoost=0: denied session won at frame %d — aging term is not what unblocked it", unaged)
	}
	if boosted >= 6 {
		t.Fatalf("AgingBoost=10 took %d frames to unblock, want < 6", boosted)
	}
}

// TestEmergencyCarryoverNeverNegative pins the emergency-debt bookkeeping:
// (a) debt deeper than one frame's budget rolls forward instead of driving
// the frame budget negative, (b) emergency grants never consume (or
// underflow) the token allowance, and (c) harvestFrame charges each
// emergency to the next frame's budget exactly once.
func TestEmergencyCarryoverNeverNegative(t *testing.T) {
	st := schedTestStation(t, func(c *Config) { c.ProbeBudget = 3 })
	st.carryover = 10 // debt worth >3 frames of budget

	// Frame 1: budget 3−10 < 0 → zero tokens, 7 rolls forward.
	st.scheduleFrame(1e9)
	if st.carryover != 7 {
		t.Fatalf("carryover after deep debt = %d, want 7", st.carryover)
	}
	for i, ss := range st.active {
		if ss.grant.tokens != 0 {
			t.Fatalf("session %d got %d tokens under exhausted budget", i, ss.grant.tokens)
		}
		// A maintenance request against zero tokens must be denied without
		// underflowing the allowance.
		if ss.grant.Grant(0, manager.ProbeMaintain) {
			t.Fatalf("session %d maintenance granted with zero tokens", i)
		}
		if ss.grant.tokens != 0 {
			t.Fatalf("session %d tokens went to %d after denial", i, ss.grant.tokens)
		}
	}
	st.harvestFrame()
	st.frame++

	// Frames 2–3 keep paying the debt down.
	st.scheduleFrame(1e9)
	if st.carryover != 4 {
		t.Fatalf("carryover = %d, want 4", st.carryover)
	}
	st.harvestFrame()
	st.frame++
	st.scheduleFrame(1e9)
	if st.carryover != 1 {
		t.Fatalf("carryover = %d, want 1", st.carryover)
	}

	// An emergency fires while tokens are exhausted: it must be granted
	// (preemption bypasses the allowance) and must not push tokens negative.
	ss := st.active[0]
	ss.grant.tokens = 0
	if !ss.grant.Grant(0, manager.ProbeEmergency) {
		t.Fatal("emergency preemption denied")
	}
	if ss.grant.tokens != 0 {
		t.Fatalf("emergency changed token count to %d", ss.grant.tokens)
	}
	before := st.carryover
	st.harvestFrame()
	if st.carryover != before+1 {
		t.Fatalf("carryover %d → %d, want +1 for the emergency", before, st.carryover)
	}
	if !ss.preemptBoost {
		t.Fatal("emergency did not set the preemption boost")
	}
	st.frame++

	// The boosted session outranks everything next frame.
	st.scheduleFrame(1e9)
	if st.schedIdx[0] != 0 {
		t.Fatalf("preempt-boosted session not ranked first (got active[%d])", st.schedIdx[0])
	}
	if st.carryover < 0 {
		t.Fatalf("carryover went negative: %d", st.carryover)
	}
}
