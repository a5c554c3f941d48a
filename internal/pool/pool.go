// Package pool is the one parallel executor of the repository: a fixed set
// of persistent workers that run fn(w, i) for every index i in [0, n) and
// meet at a barrier before Run returns.
//
// Ownership rule (see DESIGN.md "Parallel experiment engine"): only the
// outermost layer of a process owns a Pool. A metro builds one from its
// Workers knob and steps its sites inline; a standalone cluster or station
// borrows the pool its caller hands it; an experiment builds one per trial
// batch. Nested layers never start goroutines of their own.
//
// Determinism contract: indices are claimed off an atomic counter, so which
// worker runs which index is scheduling-dependent. Callers keep output
// independent of that by writing per-index results and reducing them in
// index order after Run returns; the worker index w only selects
// per-worker scratch state (a scratch.Workspace, a hybrid.Combiner) whose
// checkouts are zeroed.
//
// Allocation contract: a Run allocates nothing. Callers that run every
// frame bind fn once at construction (a method value stored in a field)
// and pass per-frame parameters through fields set before Run.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs index ranges across a fixed set of workers. Worker 0 is the
// goroutine that calls Run; workers 1..Workers()-1 are persistent helper
// goroutines parked between Runs. A nil *Pool is valid and runs inline.
type Pool struct {
	workers int
	// wake carries one token per helper a Run enlists; buffered to the
	// helper count so Run never blocks handing tokens out.
	wake   chan struct{}
	busy   sync.WaitGroup // enlisted helpers not yet done with this Run
	exited sync.WaitGroup // helper goroutines still alive
	once   sync.Once

	// Current Run's work, published to helpers by the wake send.
	fn   func(w, i int)
	n    int64
	next atomic.Int64
}

// New starts a pool of the given size; workers ≤ 0 means GOMAXPROCS. A
// one-worker pool starts no goroutines. Call Close to stop the helpers.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.wake = make(chan struct{}, workers-1)
		p.exited.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go p.helper(w)
		}
	}
	return p
}

// Workers returns the worker count: the range of w passed to fn. A nil
// pool has one worker.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run calls fn(w, i) once for every i in [0, n) and returns when all calls
// have returned. With one worker or at most one index it runs inline on
// the caller's goroutine in index order. Run is not reentrant: one caller
// at a time, and fn must not call Run on the same pool. Run must not be
// called after Close.
func (p *Pool) Run(n int, fn func(w, i int)) {
	if p == nil || p.workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	helpers := min(p.workers, n) - 1
	p.fn, p.n = fn, int64(n)
	p.next.Store(0)
	p.busy.Add(helpers)
	for k := 0; k < helpers; k++ {
		p.wake <- struct{}{}
	}
	p.drain(0)
	p.busy.Wait()
}

// drain claims and runs indices until the current Run's range is spent.
func (p *Pool) drain(w int) {
	for {
		i := p.next.Add(1) - 1
		if i >= p.n {
			return
		}
		p.fn(w, int(i))
	}
}

// helper is worker w's loop: one drain per wake token until Close.
func (p *Pool) helper(w int) {
	defer p.exited.Done()
	for range p.wake {
		p.drain(w)
		p.busy.Done()
	}
}

// Close stops the helper goroutines and returns once they have exited.
// Safe to call more than once, and on a nil pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		if p.wake != nil {
			close(p.wake)
		}
	})
	p.exited.Wait()
}
