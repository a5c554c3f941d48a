package metro

import (
	"testing"

	"mmreliable/internal/nr"
)

// TestMetroFrameZeroAllocs pins the quiescent metro frame at zero
// allocations with the executor fanned out to four workers: the prebound
// shard step, the pool's barrier, and the inline member stations must all
// stay off the allocator. Churn off, fading off — the zero-alloc fixture.
func TestMetroFrameZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChurnArrivalRate = 0
	cfg.Workers = 4
	m, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Close()
	if m.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", m.Workers())
	}
	for i := 0; i < 40; i++ { // establishment, monitor rows, batch scratch
		m.AdvanceFrame()
	}
	if avg := testing.AllocsPerRun(50, m.AdvanceFrame); avg != 0 {
		t.Fatalf("AdvanceFrame allocates %.1f objects/frame at 4 workers, want 0", avg)
	}
}
