package station

import (
	"testing"

	"mmreliable/internal/nr"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
)

// BenchmarkStationSlot measures steady-state serving throughput in
// session·slots per second: an 8-UE station stepping whole frames on the
// inline single-worker path (the per-slot cost without goroutine overhead).
func BenchmarkStationSlot(b *testing.B) {
	cfg := DefaultConfig()
	st, err := New(nr.Mu3(), cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	const ues = 8
	for i := 0; i < ues; i++ {
		s := seeds.Mix(41, int64(i))
		if _, err := st.Attach(SessionConfig{
			Scenario: sim.StaticIndoor(s),
			Budget:   sim.IndoorBudget(),
			Seed:     s,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		st.AdvanceFrame() // establish + warm buffers
	}
	slotsPerOp := ues * st.SlotsPerFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.AdvanceFrame()
	}
	b.StopTimer()
	perSlot := float64(b.Elapsed().Nanoseconds()) / float64(b.N*slotsPerOp)
	b.ReportMetric(perSlot, "ns/sessionslot")
	b.ReportMetric(1e9/perSlot, "sessionslots/s")
}

// BenchmarkStationSlotQuiescent is BenchmarkStationSlot with fading
// disabled: the static, unblocked sessions are then temporally coherent
// slot to slot, so the incremental frame engine's quiescent fast paths
// (channel skip, SNR-fold cache, batch-entry row skip) carry the whole
// frame. Run with MMR_INCREMENTAL=off for the full-recompute cost of the
// same fixture.
func BenchmarkStationSlotQuiescent(b *testing.B) {
	cfg := DefaultConfig()
	st, err := New(nr.Mu3(), cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	const ues = 8
	for i := 0; i < ues; i++ {
		s := seeds.Mix(41, int64(i))
		sc := sim.StaticIndoor(s)
		sc.Fading = nil
		if _, err := st.Attach(SessionConfig{
			Scenario: sc,
			Budget:   sim.IndoorBudget(),
			Seed:     s,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		st.AdvanceFrame()
	}
	slotsPerOp := ues * st.SlotsPerFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.AdvanceFrame()
	}
	b.StopTimer()
	perSlot := float64(b.Elapsed().Nanoseconds()) / float64(b.N*slotsPerOp)
	b.ReportMetric(perSlot, "ns/sessionslot")
	b.ReportMetric(1e9/perSlot, "sessionslots/s")
}

// BenchmarkBatchedSlot measures the frame-barrier planar batch pass alone:
// gathering every grant-holding session, one WidebandBatch evaluation over
// the frame's UEs, and the per-session wideband-SNR fold — the batched
// front door of the planar DSP backend.
func BenchmarkBatchedSlot(b *testing.B) {
	cfg := DefaultConfig()
	cfg.ProbeBudget = 0 // unlimited tokens: every established session batches
	st, err := New(nr.Mu3(), cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	const ues = 8
	for i := 0; i < ues; i++ {
		s := seeds.Mix(41, int64(i))
		if _, err := st.Attach(SessionConfig{
			Scenario: sim.StaticIndoor(s),
			Budget:   sim.IndoorBudget(),
			Seed:     s,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		st.AdvanceFrame() // establish + warm buffers
	}
	if st.batch.Len() == 0 {
		b.Fatal("no sessions batched after warmup")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.batchFrameEntry()
	}
}

// BenchmarkStationFrameParallel measures the same workload sharded across
// the worker pool — the scaling the capacity experiment leans on.
func BenchmarkStationFrameParallel(b *testing.B) {
	cfg := DefaultConfig()
	st, err := New(nr.Mu3(), cfg, newPool(b, 4))
	if err != nil {
		b.Fatal(err)
	}
	const ues = 8
	for i := 0; i < ues; i++ {
		s := seeds.Mix(41, int64(i))
		if _, err := st.Attach(SessionConfig{
			Scenario: sim.StaticIndoor(s),
			Budget:   sim.IndoorBudget(),
			Seed:     s,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		st.AdvanceFrame()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.AdvanceFrame()
	}
}
