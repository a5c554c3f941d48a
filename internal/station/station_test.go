package station

import (
	"fmt"
	"reflect"
	"testing"

	"mmreliable/internal/nr"
	"mmreliable/internal/pool"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
)

// newPool returns a pool of the given size that is closed when the test
// ends.
func newPool(t testing.TB, workers int) *pool.Pool {
	p := pool.New(workers)
	t.Cleanup(p.Close)
	return p
}

// buildStation assembles a station with n UE sessions over mixed scenarios
// (static indoor and walking-blocker indoor, alternating) plus mid-run
// attach/detach churn: every fourth session arrives late, every fifth
// leaves early. Deterministic in (n, seed, workers).
func buildStation(t *testing.T, n, workers int, seed int64, mutate func(*Config)) *Station {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := New(nr.Mu3(), cfg, newPool(t, workers))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < n; i++ {
		var sc *sim.Scenario
		sseed := seeds.Mix(seed, 981, int64(i))
		if i%2 == 0 {
			sc = sim.StaticIndoor(sseed)
		} else {
			sc = sim.WalkingBlockerIndoor(sseed)
		}
		scfg := SessionConfig{
			Scenario: sc,
			Budget:   sim.IndoorBudget(),
			Seed:     sseed,
		}
		if i%4 == 3 {
			scfg.AttachAt = 0.15 // mid-run arrival
		}
		if i%5 == 4 {
			scfg.DetachAt = 0.35 // early departure
		}
		if _, err := st.Attach(scfg); err != nil {
			t.Fatalf("Attach %d: %v", i, err)
		}
	}
	return st
}

// TestStationDeterministicAcrossWorkers is the subsystem's core contract:
// byte-identical Results for 1 vs 8 workers on a 32-UE station with
// attach/detach events — the same guarantee the CI determinism diff checks
// end-to-end through mmstation.
func TestStationDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("32-UE determinism sweep is slow; covered by CI diff")
	}
	const dur = 0.5
	res1 := buildStation(t, 32, 1, 7, nil).Run(dur)
	res8 := buildStation(t, 32, 8, 7, nil).Run(dur)
	if !reflect.DeepEqual(res1, res8) {
		t.Fatalf("results differ between 1 and 8 workers:\n1: %+v\n8: %+v", res1, res8)
	}
	if res1.Counters.Detaches == 0 {
		t.Fatalf("churn did not exercise detach: %+v", res1.Counters)
	}
	if res1.MeanReliability <= 0 {
		t.Fatalf("no reliability measured: %+v", res1)
	}
}

// TestStationDeterministicSmall is the quick (-short friendly) variant:
// 6 UEs, workers 1 vs 3.
func TestStationDeterministicSmall(t *testing.T) {
	const dur = 0.3
	res1 := buildStation(t, 6, 1, 3, nil).Run(dur)
	res3 := buildStation(t, 6, 3, 3, nil).Run(dur)
	if !reflect.DeepEqual(res1, res3) {
		t.Fatalf("results differ between 1 and 3 workers:\n1: %+v\n3: %+v", res1, res3)
	}
}

// TestAdmissionControl verifies the MaxSessions cap: excess attach
// requests are rejected at their attach boundary and reported as such,
// and a detach frees the slot for a later arrival.
func TestAdmissionControl(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSessions = 2
	st, err := New(nr.Mu3(), cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	attach := func(at, leave float64) int {
		t.Helper()
		id, err := st.Attach(SessionConfig{
			Scenario: sim.StaticIndoor(seeds.Mix(11, int64(len(st.sessions)))),
			Budget:   sim.IndoorBudget(),
			Seed:     seeds.Mix(11, int64(len(st.sessions))),
			AttachAt: at,
			DetachAt: leave,
		})
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		return id
	}
	attach(0, 0.1)  // occupies a slot, leaves at 0.1
	attach(0, 0)    // occupies the second slot forever
	attach(0, 0)    // third concurrent arrival: must be rejected
	attach(0.15, 0) // arrives after the detach freed a slot: admitted
	res := st.Run(0.3)
	c := res.Counters
	if c.AttachesAdmitted != 3 || c.AttachesRejected != 1 || c.Detaches != 1 {
		t.Fatalf("admitted=%d rejected=%d detaches=%d, want 3/1/1", c.AttachesAdmitted, c.AttachesRejected, c.Detaches)
	}
	if got := res.PerUE[2].State; got != "rejected" {
		t.Fatalf("session 2 state %q, want rejected", got)
	}
	if got := res.PerUE[0].State; got != "detached" {
		t.Fatalf("session 0 state %q, want detached", got)
	}
	if res.PerUE[0].DetachAt <= 0 {
		t.Fatalf("detached session has no DetachAt: %+v", res.PerUE[0])
	}
	// A detached session's metrics are frozen: slots stepped stop at the
	// detach boundary (0.1 s ≈ 5 frames of 160 slots).
	if res.PerUE[0].Slots >= res.PerUE[1].Slots {
		t.Fatalf("detached session kept stepping: %d vs %d slots", res.PerUE[0].Slots, res.PerUE[1].Slots)
	}
}

// TestAttachValidation covers the attach-time error paths.
func TestAttachValidation(t *testing.T) {
	st, err := New(nr.Mu3(), DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := st.Attach(SessionConfig{}); err == nil {
		t.Fatal("nil scenario accepted")
	}
	if _, err := st.Attach(SessionConfig{
		Scenario: sim.StaticIndoor(1), Budget: sim.IndoorBudget(),
		AttachAt: 0.2, DetachAt: 0.1,
	}); err == nil {
		t.Fatal("DetachAt ≤ AttachAt accepted")
	}
	if _, err := New(nr.Mu3(), Config{FramePeriod: 0, MaxSessions: 1}, nil); err == nil {
		t.Fatal("zero frame period accepted")
	}
	if _, err := New(nr.Mu3(), Config{FramePeriod: 20e-3, MaxSessions: 0}, nil); err == nil {
		t.Fatal("zero MaxSessions accepted")
	}
}

// TestProbeBudgetBound verifies the scheduler's aggregate overhead bound:
// over R frames, regular (non-emergency) grants never exceed
// ProbeBudget × R, and emergency preemptions are paid back via carryover —
// total grants stay within ProbeBudget × R + the final outstanding debt.
func TestProbeBudgetBound(t *testing.T) {
	st := buildStation(t, 8, 2, 5, func(c *Config) { c.ProbeBudget = 3 })
	res := st.Run(0.5)
	c := res.Counters
	budgeted := c.Frames * 3
	if c.Grants > budgeted {
		t.Fatalf("regular grants %d exceed budget %d", c.Grants, budgeted)
	}
	if c.Grants+c.Preemptions > budgeted+st.carryover+3 {
		t.Fatalf("grants %d + preemptions %d exceed budget %d + outstanding debt %d (+1 frame slack)",
			c.Grants, c.Preemptions, budgeted, st.carryover)
	}
	if c.Grants == 0 {
		t.Fatal("no grants at all — scheduler never handed out tokens")
	}
}

// TestSchedulerFairnessUnderStarvation pins the starvation-aging guard:
// with a budget of 1 grant/frame shared by 6 static UEs, every session
// still gets maintenance grants (aging lifts denied sessions above the
// rest), so the min/max grant ratio stays well above zero.
func TestSchedulerFairnessUnderStarvation(t *testing.T) {
	cfg := func(c *Config) { c.ProbeBudget = 1 }
	st, err := New(nr.Mu3(), func() Config { c := DefaultConfig(); cfg(&c); return c }(), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		s := seeds.Mix(23, int64(i))
		if _, err := st.Attach(SessionConfig{Scenario: sim.StaticIndoor(s), Budget: sim.IndoorBudget(), Seed: s}); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	res := st.Run(1.0)
	for _, ur := range res.PerUE {
		if ur.Grants == 0 {
			t.Fatalf("session %d starved: %+v", ur.ID, ur)
		}
	}
	if res.MinMaxGrantRatio < 0.5 {
		t.Fatalf("grant ratio %.3f < 0.5 — aging is not keeping the share fair: %+v", res.MinMaxGrantRatio, res.PerUE)
	}
	if res.Counters.BudgetDenials == 0 {
		t.Fatal("budget of 1 for 6 UEs produced no denials — the bound is not binding")
	}
}

// TestUnlimitedBudgetMatchesSelfScheduled: with arbitration disabled
// (ProbeBudget ≤ 0) a lone station session must behave exactly like the
// same manager running self-scheduled under sim.Runner semantics — no
// denials, no preemption accounting.
func TestUnlimitedBudgetMatchesSelfScheduled(t *testing.T) {
	st := buildStation(t, 2, 1, 9, func(c *Config) { c.ProbeBudget = 0 })
	res := st.Run(0.4)
	c := res.Counters
	if c.BudgetDenials != 0 {
		t.Fatalf("unlimited budget produced %d denials", c.BudgetDenials)
	}
	if c.Grants == 0 {
		t.Fatal("no grants recorded under unlimited budget")
	}
}

// TestResultsStableSnapshot: Results is safe to call between frames and
// reflects only completed frames.
func TestResultsStableSnapshot(t *testing.T) {
	st := buildStation(t, 4, 2, 13, nil)
	st.AdvanceFrame()
	mid := st.Results()
	if mid.Counters.Frames != 1 {
		t.Fatalf("frames %d after one AdvanceFrame", mid.Counters.Frames)
	}
	for i := 0; i < 4; i++ {
		st.AdvanceFrame()
	}
	fin := st.Results()
	if fin.Counters.Frames != 5 {
		t.Fatalf("frames %d after five AdvanceFrames", fin.Counters.Frames)
	}
	if fin.Counters.SessionSlots <= mid.Counters.SessionSlots {
		t.Fatal("session-slot volume did not grow")
	}
	// Per-UE results come back in session-id order.
	for i, ur := range fin.PerUE {
		if ur.ID != i {
			t.Fatalf("PerUE[%d].ID = %d, want %d", i, ur.ID, i)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(append([]float64(nil), c.in...)); got != c.want {
			t.Fatalf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

// TestStationManyWorkerCounts sweeps worker counts on one mid-size station
// and requires identical MeanReliability/MedianSNR fingerprints, printing
// the fingerprint for debugging on failure.
func TestStationManyWorkerCounts(t *testing.T) {
	var ref string
	for _, w := range []int{1, 2, 4, 7} {
		res := buildStation(t, 10, w, 17, nil).Run(0.25)
		fp := fmt.Sprintf("%x/%x/%d/%d", res.MeanReliability, res.MedianSNRdB,
			res.Counters.Grants, res.Counters.ProbesIssued)
		if ref == "" {
			ref = fp
		} else if fp != ref {
			t.Fatalf("workers=%d fingerprint %s != %s", w, fp, ref)
		}
	}
}
