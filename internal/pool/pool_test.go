package pool

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunEachIndexOnce pins the core contract: every index in [0, n) runs
// exactly once, with a worker index inside [0, Workers()), for n = 0, 1,
// fewer indices than workers, and many more.
func TestRunEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		for _, n := range []int{0, 1, 3, 1000} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				hits := make([]atomic.Int32, n)
				var badW atomic.Int32
				p.Run(n, func(w, i int) {
					if w < 0 || w >= p.Workers() {
						badW.Add(1)
					}
					hits[i].Add(1)
				})
				if badW.Load() != 0 {
					t.Fatalf("%d calls saw a worker index outside [0,%d)", badW.Load(), p.Workers())
				}
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Fatalf("index %d ran %d times", i, h)
					}
				}
			})
		}
		p.Close()
	}
}

// TestNilPoolRunsInline pins the nil-pool convention layers rely on: one
// worker, index order, caller's goroutine.
func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", p.Workers())
	}
	var order []int
	p.Run(5, func(w, i int) {
		if w != 0 {
			t.Fatalf("nil pool ran index %d on worker %d", i, w)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("nil pool ran out of order: %v", order)
		}
	}
	p.Close()
}

// TestDefaultWorkers pins that 0 resolves to at least one worker.
func TestDefaultWorkers(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatalf("New(0).Workers() = %d, want ≥ 1", p.Workers())
	}
}

// TestCloseIdempotent pins that Close may be called repeatedly and returns
// once the helpers are gone.
func TestCloseIdempotent(t *testing.T) {
	p := New(4)
	p.Run(8, func(int, int) {})
	p.Close()
	p.Close()
	New(1).Close()
}

// TestRunZeroAllocs pins the allocation contract at four workers: a Run
// with a prebound fn allocates nothing.
func TestRunZeroAllocs(t *testing.T) {
	p := New(4)
	defer p.Close()
	sums := make([]int, 64)
	fn := func(w, i int) { sums[i] += i }
	p.Run(len(sums), fn) // warm the helpers
	if a := testing.AllocsPerRun(200, func() { p.Run(len(sums), fn) }); a != 0 {
		t.Fatalf("Run allocates %.1f objects, want 0", a)
	}
}

// TestRunStress hammers back-to-back Runs of varying size so the race
// detector sees the publish/claim/barrier handoff many times over; every
// Run's per-index writes must be visible to the caller afterwards.
func TestRunStress(t *testing.T) {
	p := New(4)
	defer p.Close()
	out := make([]int, 257)
	for round := 1; round <= 500; round++ {
		n := round % len(out)
		p.Run(n, func(w, i int) { out[i] = round })
		for i := 0; i < n; i++ {
			if out[i] != round {
				t.Fatalf("round %d: index %d holds %d", round, i, out[i])
			}
		}
	}
}
