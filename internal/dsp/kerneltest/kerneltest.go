// Package kerneltest is the shared property-test harness for DSP kernel
// equivalence: any (reference, candidate) kernel pair registers into
// RunEquivalence and inherits the ≤1e-12 pin across the full operation
// surface — phasor ramps at carrier-scale seed phases, steering fills,
// candidate correlations, planar dots, and the log-SNR reduction with
// overflow-range inputs. The dsp package runs it for every kernel returned
// by dsp.Kernels() (under -race in CI), so a future GOAMD64 or assembly
// variant gets the same contract for free by joining that list.
package kerneltest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mmreliable/internal/dsp"
)

// Tol is the maximum relative disagreement allowed between a kernel and the
// reference on any operation.
const Tol = 1e-12

// lengths exercises the blocked/unrolled loop structure of fast kernels:
// empty, sub-unroll tails, one short of / exactly at / one past the
// PhasorReseed re-seed boundary, and exact multiples of it.
var lengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 127, 128, 192, 200}

// phases covers benign baseband angles up to the edge of the kernels'
// documented phase domain (|θ₀| + n·|Δθ| ≲ 10⁴): the factored channel
// kernel seeds with −2πf₀τ ramps of a few hundred radians and folds the
// ±10⁴-radian carrier phase into the coefficient, where it belongs — at
// that magnitude one ulp of the phase argument is itself ~2e-12 rad, more
// than the equivalence pin.
var phases = []float64{0, 0.25, -1.3, math.Pi, 980.25, -3333.333}

// steps covers DC (Δθ = 0), typical subcarrier ramps, a step that wraps
// past π between elements, and sign flips.
var steps = []float64{0, 1e-3, -0.098, 0.47, -2.9, 2 * math.Pi / 64}

// RunEquivalence pins kernel k against ref on every operation. Inputs are
// deterministic (seeded here), so failures reproduce exactly.
func RunEquivalence(t *testing.T, ref, k dsp.Kernel) {
	t.Helper()
	rng := rand.New(rand.NewSource(0x5eed))
	t.Run(fmt.Sprintf("%s-vs-%s", k.Name(), ref.Name()), func(t *testing.T) {
		t.Run("PhasorRampAxpy", func(t *testing.T) { testPhasorRampAxpy(t, ref, k, rng) })
		t.Run("PhasorFill", func(t *testing.T) { testPhasorFill(t, ref, k) })
		t.Run("PhasorFillCmplx", func(t *testing.T) { testPhasorFillCmplx(t, ref, k) })
		t.Run("PhasorDot", func(t *testing.T) { testPhasorDot(t, ref, k, rng) })
		t.Run("DotSplit", func(t *testing.T) { testDotSplit(t, ref, k, rng) })
		t.Run("SumLog2SNR", func(t *testing.T) { testSumLog2SNR(t, ref, k, rng) })
		t.Run("AmpFromDB", func(t *testing.T) { testAmpFromDB(t, ref, k) })
	})
}

// RunLayoutIdentity pins that kernel k fills a phasor ramp with identical
// bits in both layouts: PhasorFill (planar) and PhasorFillCmplx
// (interleaved). Consumers may then keep one steering layout and still
// reproduce what the other would have computed — the channel cache stores
// planar rows only, and its interleaved evaluators rely on this.
func RunLayoutIdentity(t *testing.T, k dsp.Kernel) {
	t.Helper()
	t.Run(k.Name()+"-fill-layouts", func(t *testing.T) {
		for _, n := range lengths {
			for _, th0 := range phases {
				for _, dth := range steps {
					re, im := make([]float64, n), make([]float64, n)
					c := make([]complex128, n)
					k.PhasorFill(re, im, th0, dth)
					k.PhasorFillCmplx(c, th0, dth)
					for i := range c {
						if math.Float64bits(real(c[i])) != math.Float64bits(re[i]) ||
							math.Float64bits(imag(c[i])) != math.Float64bits(im[i]) {
							t.Fatalf("n=%d θ0=%g Δθ=%g: element %d interleaved %v, planar (%g,%g)",
								n, th0, dth, i, c[i], re[i], im[i])
						}
					}
				}
			}
		}
	})
}

// relDiff returns |a−b| relative to a magnitude scale (floored at 1 so
// near-zero outputs are compared absolutely).
func relDiff(a, b, scale float64) float64 {
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) / scale
}

// pinVecs compares two planar vectors against the reference one's maximum
// magnitude.
func pinVecs(t *testing.T, what string, wantRe, wantIm, gotRe, gotIm []float64) {
	t.Helper()
	scale := 0.0
	for i := range wantRe {
		if a := math.Abs(wantRe[i]); a > scale {
			scale = a
		}
		if a := math.Abs(wantIm[i]); a > scale {
			scale = a
		}
	}
	for i := range wantRe {
		if d := relDiff(wantRe[i], gotRe[i], scale); d > Tol {
			t.Fatalf("%s: re[%d] = %g, want %g (rel %g)", what, i, gotRe[i], wantRe[i], d)
		}
		if d := relDiff(wantIm[i], gotIm[i], scale); d > Tol {
			t.Fatalf("%s: im[%d] = %g, want %g (rel %g)", what, i, gotIm[i], wantIm[i], d)
		}
	}
}

func testPhasorRampAxpy(t *testing.T, ref, k dsp.Kernel, rng *rand.Rand) {
	t.Helper()
	for _, n := range lengths {
		for _, th0 := range phases {
			for _, dth := range steps {
				cRe, cIm := rng.NormFloat64()*1e-4, rng.NormFloat64()*1e-4
				aRe, aIm := make([]float64, n), make([]float64, n)
				bRe, bIm := make([]float64, n), make([]float64, n)
				for i := 0; i < n; i++ {
					v, w := rng.NormFloat64()*1e-4, rng.NormFloat64()*1e-4
					aRe[i], aIm[i] = v, w
					bRe[i], bIm[i] = v, w
				}
				ref.PhasorRampAxpy(aRe, aIm, cRe, cIm, th0, dth)
				k.PhasorRampAxpy(bRe, bIm, cRe, cIm, th0, dth)
				pinVecs(t, fmt.Sprintf("axpy n=%d θ0=%g Δθ=%g", n, th0, dth), aRe, aIm, bRe, bIm)
			}
		}
	}
}

func testPhasorFill(t *testing.T, ref, k dsp.Kernel) {
	t.Helper()
	for _, n := range lengths {
		for _, th0 := range phases {
			for _, dth := range steps {
				aRe, aIm := make([]float64, n), make([]float64, n)
				bRe, bIm := make([]float64, n), make([]float64, n)
				ref.PhasorFill(aRe, aIm, th0, dth)
				k.PhasorFill(bRe, bIm, th0, dth)
				pinVecs(t, fmt.Sprintf("fill n=%d θ0=%g Δθ=%g", n, th0, dth), aRe, aIm, bRe, bIm)
			}
		}
	}
}

func testPhasorFillCmplx(t *testing.T, ref, k dsp.Kernel) {
	t.Helper()
	for _, n := range lengths {
		for _, th0 := range phases {
			for _, dth := range steps {
				a := make([]complex128, n)
				b := make([]complex128, n)
				ref.PhasorFillCmplx(a, th0, dth)
				k.PhasorFillCmplx(b, th0, dth)
				for i := range a {
					if d := relDiff(real(a[i]), real(b[i]), 1); d > Tol {
						t.Fatalf("fillcmplx n=%d θ0=%g Δθ=%g: re[%d] rel %g", n, th0, dth, i, d)
					}
					if d := relDiff(imag(a[i]), imag(b[i]), 1); d > Tol {
						t.Fatalf("fillcmplx n=%d θ0=%g Δθ=%g: im[%d] rel %g", n, th0, dth, i, d)
					}
				}
			}
		}
	}
}

func testPhasorDot(t *testing.T, ref, k dsp.Kernel, rng *rand.Rand) {
	t.Helper()
	for _, n := range lengths {
		for _, th0 := range phases {
			for _, dth := range steps {
				rowRe, rowIm := make([]float64, n), make([]float64, n)
				scale := 0.0
				for i := 0; i < n; i++ {
					rowRe[i], rowIm[i] = rng.NormFloat64(), rng.NormFloat64()
					scale += math.Hypot(rowRe[i], rowIm[i])
				}
				aRe, aIm := ref.PhasorDot(rowRe, rowIm, th0, dth)
				bRe, bIm := k.PhasorDot(rowRe, rowIm, th0, dth)
				if d := relDiff(aRe, bRe, scale); d > Tol {
					t.Fatalf("dot n=%d θ0=%g Δθ=%g: re %g vs %g (rel %g)", n, th0, dth, bRe, aRe, d)
				}
				if d := relDiff(aIm, bIm, scale); d > Tol {
					t.Fatalf("dot n=%d θ0=%g Δθ=%g: im %g vs %g (rel %g)", n, th0, dth, bIm, aIm, d)
				}
			}
		}
	}
}

func testDotSplit(t *testing.T, ref, k dsp.Kernel, rng *rand.Rand) {
	t.Helper()
	for _, n := range lengths {
		aRe, aIm := make([]float64, n), make([]float64, n)
		w := make([]complex128, n)
		scale := 0.0
		for i := 0; i < n; i++ {
			aRe[i], aIm[i] = rng.NormFloat64(), rng.NormFloat64()
			w[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			scale += math.Hypot(aRe[i], aIm[i])
		}
		wantRe, wantIm := ref.DotSplit(aRe, aIm, w)
		gotRe, gotIm := k.DotSplit(aRe, aIm, w)
		if d := relDiff(wantRe, gotRe, scale); d > Tol {
			t.Fatalf("dotsplit n=%d: re %g vs %g (rel %g)", n, gotRe, wantRe, d)
		}
		if d := relDiff(wantIm, gotIm, scale); d > Tol {
			t.Fatalf("dotsplit n=%d: im %g vs %g (rel %g)", n, gotIm, wantIm, d)
		}
	}
}

func testSumLog2SNR(t *testing.T, ref, k dsp.Kernel, rng *rand.Rand) {
	t.Helper()
	// ampScale sweeps the per-subcarrier SNR from deep outage to ~1e12 —
	// the last making every 1+SNR term huge, so a product-form fast path
	// must renormalize to stay finite where the reference's per-term Log2
	// trivially does.
	for _, n := range lengths {
		for _, ampScale := range []float64{0, 1e-9, 1e-4, 2.5e-4, 1e2} {
			re, im := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				re[i], im[i] = rng.NormFloat64()*ampScale, rng.NormFloat64()*ampScale
			}
			txLin, noiseLin := 31.62, 2.1e-8 // ≈ the default budget's linear terms
			want := ref.SumLog2SNR(re, im, txLin, noiseLin)
			got := k.SumLog2SNR(re, im, txLin, noiseLin)
			if math.IsInf(want, 0) || math.IsNaN(want) {
				t.Fatalf("sumlog n=%d amp=%g: reference not finite: %g", n, ampScale, want)
			}
			if d := relDiff(want, got, math.Abs(want)); d > Tol {
				t.Fatalf("sumlog n=%d amp=%g: %g vs %g (rel %g)", n, ampScale, got, want, d)
			}
		}
	}
}

func testAmpFromDB(t *testing.T, ref, k dsp.Kernel) {
	t.Helper()
	for db := -40.0; db <= 160; db += 2.37 {
		want := ref.AmpFromDB(db)
		got := k.AmpFromDB(db)
		if d := math.Abs(want-got) / want; d > Tol {
			t.Fatalf("ampfromdb %g: %g vs %g (rel %g)", db, got, want, d)
		}
	}
}
