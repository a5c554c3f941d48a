package experiments

import (
	"math/rand"
	"testing"

	"mmreliable/internal/scratch"
)

// TestTrialSeedsDistinct asserts that no two (experiment label, trial)
// pairs derive the same RNG stream — the property the old additive-offset
// seeding (cfg.Seed+161, seed+1, seed+2, …) could not guarantee.
func TestTrialSeedsDistinct(t *testing.T) {
	cfg := Config{Seed: 1}
	labels := []int64{
		labelFig15d, labelFig16, labelFig17b, labelFig17c,
		labelFig18a, labelFig18Ensemble, labelFig18Scenario, labelFig19,
		labelAblationA1, labelAblationA2, labelAblationA3, labelAblationA4,
		labelAblationA5, labelExtIRS, labelExtHandover,
	}
	seen := map[int64]string{}
	for _, label := range labels {
		for trial := 0; trial < 200; trial++ {
			s := cfg.trialSeed(label, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("stream seed collision: (label %d, trial %d) vs %s", label, trial, prev)
			}
			seen[s] = string(rune(label)) + "/" + string(rune(trial))
		}
	}
	// Nearby user seeds must not alias either (seed 1 trial k vs seed 2
	// trial k was exactly the old failure mode with additive offsets).
	cfg2 := Config{Seed: 2}
	for _, label := range labels {
		for trial := 0; trial < 200; trial++ {
			if _, dup := seen[cfg2.trialSeed(label, trial)]; dup {
				t.Fatalf("seed-1 and seed-2 share a stream at label %d trial %d", label, trial)
			}
		}
	}
}

// TestTrialStreamsDecorrelated spot-checks that adjacent trials do not
// produce correlated draws (a symptom of structured seeding).
func TestTrialStreamsDecorrelated(t *testing.T) {
	cfg := Config{Seed: 1}
	a := cfg.trialRNG(labelFig15d, 0)
	b := cfg.trialRNG(labelFig15d, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent trial streams share %d of 64 draws", same)
	}
}

// TestParallelTrialsDeterministic verifies the engine's core contract:
// results are identical for any worker count, and each slot matches the
// direct (seed, label, trial) derivation.
func TestParallelTrialsDeterministic(t *testing.T) {
	fn := func(trial int, rng *rand.Rand, ws *scratch.Workspace) float64 {
		if ws == nil {
			t.Fatal("trial received a nil workspace")
		}
		return float64(trial) + rng.Float64()
	}
	const n = 100
	base := Config{Seed: 7, Workers: 1}
	want := ParallelTrials(base, 999, n, fn)
	for _, workers := range []int{2, 3, 8, 64} {
		cfg := Config{Seed: 7, Workers: workers}
		got := ParallelTrials(cfg, 999, n, fn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d trial %d: %g != %g", workers, i, got[i], want[i])
			}
		}
	}
	// Slot i must equal the direct derivation, independent of scheduling.
	for i := 0; i < n; i++ {
		direct := fn(i, base.trialRNG(999, i), scratch.New())
		if want[i] != direct {
			t.Fatalf("trial %d result %g != direct derivation %g", i, want[i], direct)
		}
	}
	if got := ParallelTrials(base, 999, 0, fn); got != nil {
		t.Fatalf("n=0 should return nil, got %v", got)
	}
}

// TestWorkersResolution pins the Workers-knob semantics.
func TestWorkersResolution(t *testing.T) {
	if w := (Config{Workers: 4}).workers(); w != 4 {
		t.Fatalf("Workers=4 resolved to %d", w)
	}
	if w := (Config{}).workers(); w < 1 {
		t.Fatalf("Workers=0 resolved to %d, want ≥1 (GOMAXPROCS)", w)
	}
}

// figDeterminism runs one figure at two worker counts and requires
// byte-identical tables.
func figDeterminism(t *testing.T, id string) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	serial := e.Run(Config{Seed: 1, Quick: true, Workers: 1}).String()
	parallel := e.Run(Config{Seed: 1, Quick: true, Workers: 8}).String()
	if serial != parallel {
		t.Fatalf("fig %s differs between Workers=1 and Workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			id, serial, parallel)
	}
}

// TestFigDeterminismAcrossWorkers is the engine's acceptance test: the
// ported figure generators must produce byte-identical tables at any
// worker count. Fig 15a is scan-only (trivially deterministic), 15d and a1
// are Monte-Carlo ensembles, 16 is the two-scheme replay, and 18a and a3
// replay each trial's scenario once against every compared scheme.
func TestFigDeterminismAcrossWorkers(t *testing.T) {
	for _, id := range []string{"15a", "15d", "16", "a1", "18a", "a3"} {
		figDeterminism(t, id)
	}
}

// TestFig18bDeterminismAcrossWorkers covers the heaviest ported ensemble
// (40 mobile+blockage runs × 4 schemes at full scale; quick here), each
// run's scenario replayed once against all four schemes.
func TestFig18bDeterminismAcrossWorkers(t *testing.T) {
	figDeterminism(t, "18b")
}

// TestParallelExperimentRaceSafety runs one Monte-Carlo figure with a
// saturated worker pool; executed under -race in CI it proves no
// *rand.Rand (or any other mutable state) is shared across trial
// goroutines.
func TestParallelExperimentRaceSafety(t *testing.T) {
	_ = Fig15dOracleGap(Config{Seed: 3, Quick: true, Workers: 8})
	_ = Fig16Blockage(Config{Seed: 3, Quick: true, Workers: 2})
}
