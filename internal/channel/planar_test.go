package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
	"mmreliable/internal/env"
	"mmreliable/internal/scratch"
)

// withKernel runs f once per registered DSP kernel, restoring the active
// kernel afterwards.
func withKernel(t *testing.T, f func(t *testing.T, k dsp.Kernel)) {
	t.Helper()
	for _, k := range dsp.Kernels() {
		t.Run(k.Name(), func(t *testing.T) {
			prev := dsp.SetKernel(k)
			defer dsp.SetKernel(prev)
			f(t, k)
		})
	}
}

// splitToVec combines planar re/im into a fresh complex vector.
func splitToVec(re, im []float64) cmx.Vector {
	out := make(cmx.Vector, len(re))
	cmx.Combine(re, im, out)
	return out
}

// TestEffectiveWidebandSplitEquivalence pins the planar evaluation against
// the direct per-subcarrier form at ≤1e-12 under BOTH kernels, across the
// full factored case set (CFO/SFO live in the sounder, not the channel; the
// channel-side axes are blockage, RxWeights, non-uniform grids, dead and
// zero-delay paths).
func TestEffectiveWidebandSplitEquivalence(t *testing.T) {
	withKernel(t, func(t *testing.T, _ dsp.Kernel) {
		for _, tc := range factoredCases(t) {
			t.Run(tc.name, func(t *testing.T) {
				re := make([]float64, len(tc.fOffs))
				im := make([]float64, len(tc.fOffs))
				for i := range re {
					re[i], im[i] = 99, -99 // stale content must be overwritten
				}
				m := tc.m.Clone() // cold cache under this kernel
				m.EffectiveWidebandSplitInto(tc.w, tc.fOffs, re, im)
				want := directWideband(tc.m.Clone(), tc.w, tc.fOffs)
				if err := maxRelErr(splitToVec(re, im), want); err > 1e-12 {
					t.Fatalf("planar vs direct relative error %.3g > 1e-12", err)
				}
			})
		}
	})
}

// TestSplitMatchesInterleavedUnderReference pins the bit-parity contract:
// under the reference kernel, EffectiveWidebandSplitInto is the same
// arithmetic as the legacy interleaved EffectiveWidebandInto, so the two
// must agree bit-for-bit — the guarantee that lets planar consumers and
// interleaved consumers coexist without a determinism seam. Fresh and
// Reuse models are both covered: the latter build their cache through the
// in-place path.
func TestSplitMatchesInterleavedUnderReference(t *testing.T) {
	prev := dsp.SetKernel(dsp.Reference)
	defer dsp.SetKernel(prev)
	for _, tc := range factoredCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, reuse := range []bool{false, true} {
				m := tc.m.Clone()
				m.Reuse = reuse
				re := make([]float64, len(tc.fOffs))
				im := make([]float64, len(tc.fOffs))
				m.EffectiveWidebandSplitInto(tc.w, tc.fOffs, re, im)
				want := m.EffectiveWidebandInto(tc.w, tc.fOffs, make(cmx.Vector, len(tc.fOffs)))
				for k := range want {
					if re[k] != real(want[k]) || im[k] != imag(want[k]) {
						t.Fatalf("reuse=%v subcarrier %d: split (%g,%g) != interleaved %v",
							reuse, k, re[k], im[k], want[k])
					}
				}
			}
		})
	}
}

// TestSubcarrierOffsetsEdgeCases pins the grid builder's degenerate inputs:
// non-positive counts yield nil (not a panic), a single subcarrier sits at
// band center, and the exact-reseed boundaries (nsc a multiple of the
// 64-subcarrier phasor re-seed period) evaluate correctly under both
// kernels — the case where the recurrence's last block ends exactly on a
// re-seed with no tail.
func TestSubcarrierOffsetsEdgeCases(t *testing.T) {
	if got := SubcarrierOffsets(400e6, 0); got != nil {
		t.Fatalf("nsc=0: got %v want nil", got)
	}
	if got := SubcarrierOffsets(400e6, -3); got != nil {
		t.Fatalf("nsc=-3: got %v want nil", got)
	}
	one := SubcarrierOffsets(400e6, 1)
	if len(one) != 1 || one[0] != 0 {
		t.Fatalf("nsc=1: got %v want [0]", one)
	}
	// Grid spacing and symmetry on a regular count.
	g := SubcarrierOffsets(400e6, 64)
	if len(g) != 64 {
		t.Fatalf("nsc=64: len %d", len(g))
	}
	if math.Abs(g[0]+g[63]) > 1e-6 || math.Abs((g[1]-g[0])-400e6/64) > 1e-6 {
		t.Fatalf("nsc=64 grid malformed: first %g last %g step %g", g[0], g[63], g[1]-g[0])
	}

	u := testArray()
	rng := rand.New(rand.NewSource(5))
	m := Cluster(rng, env.Band28GHz(), u, DefaultClusterParams())
	w := u.SingleBeam(0.12)
	withKernel(t, func(t *testing.T, _ dsp.Kernel) {
		// nsc around and exactly on the re-seed period: 63 (tail only),
		// 64/128/192 (exact multiples), 65/129 (one past). The planar path
		// is pinned against the interleaved factored form — the same phase
		// decomposition, so the 1e-12 bound isolates the recurrence/re-seed
		// behavior (direct-vs-factored is pinned separately and carries
		// carrier-phase quantization of its own on long-delay draws).
		for _, nsc := range []int{1, 2, 63, 64, 65, 128, 129, 192} {
			fOffs := SubcarrierOffsets(400e6, nsc)
			mm := m.Clone()
			re := make([]float64, nsc)
			im := make([]float64, nsc)
			mm.EffectiveWidebandSplitInto(w, fOffs, re, im)
			want := mm.EffectiveWidebandInto(w, fOffs, make(cmx.Vector, nsc))
			if err := maxRelErr(splitToVec(re, im), want); err > 1e-12 {
				t.Fatalf("nsc=%d: planar vs interleaved rel err %.3g > 1e-12", nsc, err)
			}
		}
	})
}

// TestRefreshLossPath pins the partial cache revalidation: when only
// ExtraLossDB moves between evaluations (the per-slot fading/blockage
// mutation), the loss-only refresh must produce results bit-identical to a
// full rebuild on a fresh model, and must not allocate once warm.
func TestRefreshLossPath(t *testing.T) {
	u := testArray()
	fOffs := SubcarrierOffsets(400e6, 64)
	w := u.SingleBeam(0.1)
	build := func(reuse bool) *Model {
		m := Cluster(rand.New(rand.NewSource(13)), env.Band28GHz(), u, DefaultClusterParams())
		m.Reuse = reuse
		return m
	}
	mr := build(true)
	dst := make(cmx.Vector, len(fOffs))
	ref := make(cmx.Vector, len(fOffs))
	mr.EffectiveWidebandInto(w, fOffs, dst) // build the cache once
	for i := 0; i < 6; i++ {
		for l := range mr.Paths {
			mr.Paths[l].ExtraLossDB = float64((i+l)%5) * 2.5 // loss only
		}
		mr.EffectiveWidebandInto(w, fOffs, dst)
		mf := build(false)
		for l := range mf.Paths {
			mf.Paths[l].ExtraLossDB = mr.Paths[l].ExtraLossDB
		}
		mf.EffectiveWidebandInto(w, fOffs, ref)
		for k := range dst {
			if dst[k] != ref[k] {
				t.Fatalf("iter %d subcarrier %d: refresh %v vs rebuild %v", i, k, dst[k], ref[k])
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		mr.Paths[0].ExtraLossDB = float64(i%7) * 2
		mr.EffectiveWidebandInto(w, fOffs, dst)
	})
	if allocs != 0 {
		t.Fatalf("loss-only refresh allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCopyStateFromInvalidation pins the RxWeights-aware invalidation:
// copies that keep the weight values must reuse the cache (zero allocs,
// covered in TestCopyStateFrom) yet still track every snapshot-visible
// mutation; copies that change weight values must invalidate.
func TestCopyStateFromInvalidation(t *testing.T) {
	u := testArray()
	fOffs := SubcarrierOffsets(400e6, 64)
	w := u.SingleBeam(0.1)
	src := Cluster(rand.New(rand.NewSource(21)), env.Band28GHz(), u, DefaultClusterParams())
	src.Rx = antenna.NewULA(4, 28e9)
	src.RxWeights = src.Rx.SingleBeam(0.2)

	dstM := &Model{Reuse: true}
	dstM.CopyStateFrom(src)
	got := make(cmx.Vector, len(fOffs))
	want := make(cmx.Vector, len(fOffs))
	check := func(name string) {
		t.Helper()
		dstM.CopyStateFrom(src)
		dstM.EffectiveWidebandInto(w, fOffs, got)
		src.Clone().EffectiveWidebandInto(w, fOffs, want)
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("%s: subcarrier %d copy %v vs fresh %v", name, k, got[k], want[k])
			}
		}
	}
	check("initial")
	src.Paths[0].ExtraLossDB += 12
	check("loss mutation")
	src.Paths[1].ExtraPhase += 0.9
	check("phase mutation")
	src.RxWeights = src.Rx.SingleBeam(-0.15) // new values: must invalidate
	check("rx-weights value change")
	same := src.Rx.SingleBeam(-0.15) // equal values, different backing array
	src.RxWeights = same
	check("rx-weights equal-value rebind")
}

// TestWidebandBatch pins the batch evaluator: rows match the per-model
// planar evaluation exactly (same kernel, same arithmetic), Row panics
// before Eval, and re-Reset + re-Add reuses registrations without leaking
// rows across frames.
func TestWidebandBatch(t *testing.T) {
	u := testArray()
	fOffs := SubcarrierOffsets(400e6, 64)
	rng := rand.New(rand.NewSource(17))
	models := []*Model{
		Cluster(rng, env.Band28GHz(), u, DefaultClusterParams()),
		Cluster(rng, env.Band28GHz(), u, DefaultClusterParams()),
		twoPath(3, -0.4),
	}
	weights := []cmx.Vector{u.SingleBeam(0.1), u.SingleBeam(-0.3), u.SingleBeam(0)}

	var b WidebandBatch
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Row before Eval did not panic")
			}
		}()
		b.Reset(fOffs)
		b.Add(models[0], weights[0])
		b.Row(0)
	}()

	ws := scratch.New()
	for frame := 0; frame < 3; frame++ {
		b.Reset(fOffs)
		for i, m := range models {
			if got := b.Add(m, weights[i]); got != i {
				t.Fatalf("Add returned row %d want %d", got, i)
			}
		}
		mk := ws.Mark()
		b.Eval(ws)
		for i, m := range models {
			re, im := b.Row(i)
			wantRe := make([]float64, len(fOffs))
			wantIm := make([]float64, len(fOffs))
			m.EffectiveWidebandSplitInto(weights[i], fOffs, wantRe, wantIm)
			for k := range wantRe {
				if re[k] != wantRe[k] || im[k] != wantIm[k] {
					t.Fatalf("frame %d row %d subcarrier %d: batch (%g,%g) vs direct (%g,%g)",
						frame, i, k, re[k], im[k], wantRe[k], wantIm[k])
				}
			}
		}
		ws.Release(mk)
		// Mutate between frames so each Eval sees fresh state.
		models[0].Paths[0].ExtraLossDB = float64(frame+1) * 4
	}

	// Steady state (registrations at high-water, workspace warm): no allocs.
	allocs := testing.AllocsPerRun(50, func() {
		b.Reset(fOffs)
		for i, m := range models {
			b.Add(m, weights[i])
		}
		mk := ws.Mark()
		b.Eval(ws)
		_, _ = b.Row(2)
		ws.Release(mk)
	})
	if allocs != 0 {
		t.Fatalf("batch steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkEffectiveWidebandBatch measures the batched planar hot path: 8
// models × 64 subcarriers per Eval, the frame-barrier shape the station
// runs.
func BenchmarkEffectiveWidebandBatch(b *testing.B) {
	u := testArray()
	fOffs := SubcarrierOffsets(400e6, 64)
	rng := rand.New(rand.NewSource(23))
	const n = 8
	models := make([]*Model, n)
	weights := make([]cmx.Vector, n)
	for i := range models {
		models[i] = Cluster(rng, env.Band28GHz(), u, DefaultClusterParams())
		models[i].Reuse = true
		weights[i] = u.SingleBeam(0.05 * float64(i))
	}
	ws := scratch.New()
	var batch WidebandBatch
	batch.Reset(fOffs)
	for i := range models {
		batch.Add(models[i], weights[i])
	}
	mk := ws.Mark()
	batch.Eval(ws) // warm caches and workspace
	ws.Release(mk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset(fOffs)
		for k := range models {
			batch.Add(models[k], weights[k])
		}
		m := ws.Mark()
		batch.Eval(ws)
		ws.Release(m)
	}
}

// interleavedWideband evaluates the wideband channel from interleaved
// steering vectors: each path's a(φ)ᵀw is antenna.SteeringInto followed by
// cmx.Vector.Dot, then the same coefficient and frequency-ramp loop as
// EffectiveWidebandInto.
func interleavedWideband(m *Model, w cmx.Vector, fOffs []float64) cmx.Vector {
	c := m.pathCache()
	dst := make(cmx.Vector, len(fOffs))
	step, uniform := uniformStep(fOffs)
	a := make(cmx.Vector, m.Tx.N)
	for l := range c.coef {
		if c.coef[l] == 0 {
			continue
		}
		cl := c.coef[l] * m.Tx.SteeringInto(m.Paths[l].AoD, a).Dot(w)
		tau := c.delays[l]
		switch {
		case tau == 0:
			for k := range dst {
				dst[k] += cl
			}
		case !uniform:
			for k, f := range fOffs {
				dst[k] += cl * cmplx.Rect(1, -2*math.Pi*f*tau)
			}
		default:
			angle0 := -2 * math.Pi * fOffs[0] * tau
			stepAngle := -2 * math.Pi * step * tau
			r := cmplx.Rect(1, stepAngle)
			var p complex128
			for k := range dst {
				if k%phasorReseed == 0 {
					p = cmplx.Rect(1, angle0+float64(k)*stepAngle)
				}
				dst[k] += cl * p
				p *= r
			}
		}
	}
	return dst
}

// TestSteeringLayoutBitParity pins the single planar steering layout of the
// path cache: EffectiveWidebandInto and PerAntennaCSI must equal, bit for
// bit, the reconstruction from interleaved steering vectors
// (antenna.SteeringInto + cmx.Vector.Dot / AddScaled), under every kernel,
// for fresh and Reuse models, across the blockage, RxWeights, non-uniform,
// dead-path and zero-delay cases.
func TestSteeringLayoutBitParity(t *testing.T) {
	withKernel(t, func(t *testing.T, _ dsp.Kernel) {
		for _, tc := range factoredCases(t) {
			for _, reuse := range []bool{false, true} {
				m := tc.m.Clone() // cold cache under this kernel
				m.Reuse = reuse
				got := m.EffectiveWidebandInto(tc.w, tc.fOffs, make(cmx.Vector, len(tc.fOffs)))
				want := interleavedWideband(m, tc.w, tc.fOffs)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s reuse=%v: subcarrier %d planar-row %v, interleaved %v",
							tc.name, reuse, k, got[k], want[k])
					}
				}
				for _, f := range []float64{0, tc.fOffs[0], 1.3e8} {
					h := m.PerAntennaCSI(f)
					ref := make(cmx.Vector, m.Tx.N)
					for l := range m.Paths {
						if g := m.PathGain(l, f); g != 0 {
							ref.AddScaled(g, m.Tx.Steering(m.Paths[l].AoD))
						}
					}
					for n := range ref {
						if h[n] != ref[n] {
							t.Fatalf("%s reuse=%v f=%g: antenna %d CSI %v, interleaved %v",
								tc.name, reuse, f, n, h[n], ref[n])
						}
					}
				}
			}
		}
	})
}
