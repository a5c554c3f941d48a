package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/baselines"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/events"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

// TestSharedReplayMatchesSingleRuns pins the contract the figure
// generators rely on when they replay one scenario against every compared
// scheme: Run(sc, a, b, c, d) hands each scheme exactly the slots — and so
// the Summary and per-slot series, bit for bit — it gets from a Run of its
// own on a freshly built scenario. The UE is directional, so every scheme
// binds its own RxWeights into its model; a leak between the per-scheme
// model clones would show up as a diverging series.
func TestSharedReplayMatchesSingleRuns(t *testing.T) {
	scenario := func() *sim.Scenario {
		sc := sim.RotatingUE(5, 24)
		sc.Duration = 0.25
		sc.Blockage = events.Schedule{{
			PathIndex: 0, Start: sim.StandardWarmup + 0.1, Duration: 0.08,
			DepthDB: 26, RampTime: events.RampFor(26),
		}}
		return sc
	}
	budget := sim.IndoorBudget()
	opt := baselines.DefaultOptions()
	// mk builds scheme i from a fixed stream, so both sides of the
	// comparison start from identical scheme state.
	mk := func(i int) sim.Scheme {
		u := antenna.NewULA(8, 28e9)
		rng := rand.New(rand.NewSource(int64(100 + i)))
		var s sim.Scheme
		var err error
		switch i {
		case 0:
			s, err = manager.New("mmreliable", u, budget, nr.Mu3(), manager.DefaultConfig(), rng)
		case 1:
			s, err = baselines.NewSingleBeamReactive(u, budget, nr.Mu3(), opt, rng)
		case 2:
			s, err = baselines.NewBeamSpy(u, budget, nr.Mu3(), opt, rng)
		case 3:
			s, err = baselines.NewWideBeam(u, budget, nr.Mu3(), opt, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const n = 4
	runner := sim.Runner{Warmup: sim.StandardWarmup, KeepSeries: true}
	schemes := make([]sim.Scheme, n)
	for i := range schemes {
		schemes[i] = mk(i)
	}
	shared, err := runner.Run(scenario(), schemes...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s := mk(i)
		alone, err := runner.Run(scenario(), s)
		if err != nil {
			t.Fatal(err)
		}
		got, want := shared[s.Name()], alone[s.Name()]
		if len(want.Series) == 0 || len(got.Series) != len(want.Series) {
			t.Fatalf("%s: shared replay has %d slots, single run %d", s.Name(), len(got.Series), len(want.Series))
		}
		// %v prints every float64 in its shortest round-trip form, so equal
		// strings mean equal bits.
		if g, w := fmt.Sprintf("%+v", got.Summary), fmt.Sprintf("%+v", want.Summary); g != w {
			t.Fatalf("%s: shared replay summary %s, single run %s", s.Name(), g, w)
		}
		for k := range want.Series {
			if g, w := fmt.Sprintf("%v", got.Series[k]), fmt.Sprintf("%v", want.Series[k]); g != w {
				t.Fatalf("%s slot %d: shared replay %s, single run %s", s.Name(), k, g, w)
			}
		}
	}
}
