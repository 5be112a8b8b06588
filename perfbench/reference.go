package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Reference observables. reference.json holds the flame's Tmax
// trajectory on a grid over the seeded (Thot, radius) band and the
// shock's final-state integrals on a grid over the seeded amplitude
// band, recorded by `perfbench -make-reference`. A run's answer is
// compared with the reference interpolated to its drawn parameters.
//
// The tolerances admit changes that move results within a small
// relative band (fitted transport kernels, conservative refluxing) but
// reject a wrong answer: switching chemistry off leaves the final flame
// Tmax ~15% below the reference, and swapping the Godunov flux for the
// EFM flux moves the shock's ∫|ρv| by ~10%.

//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Flame struct {
		Thot   []float64     `json:"Thot"`
		Radius []float64     `json:"radius"`
		Tmax   [][][]float64 `json:"Tmax"` // [Thot][radius][probe]
	} `json:"flame"`
	Shock struct {
		Amplitude []float64 `json:"amplitude"`
		Mass      []float64 `json:"mass"`
		VyAbs     []float64 `json:"vyAbs"`
		ZetaX     []float64 `json:"zetaX"`
	} `json:"shock"`
}

const (
	flameTmaxTol  = 0.01  // relative, per probe
	flameSumYTol  = 1e-3  // max |ΣY−1|
	flameYMin     = -1e-6 // mass fractions may undershoot zero by this much
	shockMassTol  = 0.005 // relative
	shockVyTol    = 0.02  // relative
	shockZetaXTol = 0.005 // relative
	shockCircTol  = 1e-8  // |Γ| of the mirror-symmetric interface
	shockTEnd     = 0.4
)

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

// bracket finds i with xs[i] <= x <= xs[i+1] and the weight of xs[i+1].
func bracket(xs []float64, x float64) (int, float64) {
	i := 0
	for i < len(xs)-2 && x > xs[i+1] {
		i++
	}
	return i, (x - xs[i]) / (xs[i+1] - xs[i])
}

// flameTmaxAt interpolates the reference Tmax trajectory bilinearly.
func (r *reference) flameTmaxAt(thot, radius float64) []float64 {
	f := r.Flame
	i, u := bracket(f.Thot, thot)
	j, v := bracket(f.Radius, radius)
	out := make([]float64, len(f.Tmax[i][j]))
	for k := range out {
		out[k] = (1-u)*(1-v)*f.Tmax[i][j][k] + u*(1-v)*f.Tmax[i+1][j][k] +
			(1-u)*v*f.Tmax[i][j+1][k] + u*v*f.Tmax[i+1][j+1][k]
	}
	return out
}

// shockAt interpolates the reference integrals piecewise linearly.
func (r *reference) shockAt(amp float64) (mass, vy, zx float64) {
	s := r.Shock
	i, u := bracket(s.Amplitude, amp)
	lerp := func(ys []float64) float64 { return (1-u)*ys[i] + u*ys[i+1] }
	return lerp(s.Mass), lerp(s.VyAbs), lerp(s.ZetaX)
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func g(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// judgeFlame returns every oracle violation of one flame run.
func judgeFlame(o *simOracle, in flameInputs, ref *reference) []string {
	var bad []string
	if o.cells == 0 {
		bad = append(bad, "flame: empty field")
	}
	if o.nonFinite > 0 {
		bad = append(bad, fmt.Sprintf("flame: %d cells hold NaN or Inf", o.nonFinite))
	}
	if !(o.tMin >= 250 && o.tMax <= 3500) {
		bad = append(bad, fmt.Sprintf("flame: T range [%s, %s] outside [250, 3500] K", g(o.tMin), g(o.tMax)))
	}
	if !(o.yMin >= flameYMin) {
		bad = append(bad, fmt.Sprintf("flame: mass fraction %s below %g", g(o.yMin), flameYMin))
	}
	if !(o.sumYDev <= flameSumYTol) {
		bad = append(bad, fmt.Sprintf("flame: max |ΣY-1| = %s exceeds %g", g(o.sumYDev), flameSumYTol))
	}
	want := ref.flameTmaxAt(in.Thot, in.Radius)
	if len(o.tmaxTraj) != len(want) {
		return append(bad, fmt.Sprintf("flame: %d Tmax probes, want %d", len(o.tmaxTraj), len(want)))
	}
	for k, t := range o.tmaxTraj {
		if !(relErr(t, want[k]) <= flameTmaxTol) {
			bad = append(bad, fmt.Sprintf("flame: Tmax after step %d = %s K, reference %s K", (k+1)*flameProbeEvery, g(t), g(want[k])))
		}
	}
	return bad
}

// judgeShock returns every oracle violation of one shock run.
func judgeShock(o *simOracle, in shockInputs, ref *reference) []string {
	var bad []string
	if o.cells == 0 {
		bad = append(bad, "shock: empty field")
	}
	if o.nonFinite > 0 {
		bad = append(bad, fmt.Sprintf("shock: %d cells hold NaN or Inf", o.nonFinite))
	}
	if !(o.rhoMin > 0 && o.pMin > 0) {
		bad = append(bad, fmt.Sprintf("shock: min density %s, min pressure %s: not positive", g(o.rhoMin), g(o.pMin)))
	}
	if n := len(o.times); n == 0 || math.Abs(o.times[n-1]-shockTEnd) > 1e-12 {
		bad = append(bad, "shock: run did not reach tEnd")
	}
	for i, c := range o.circ {
		if !(math.Abs(c) <= shockCircTol) {
			bad = append(bad, fmt.Sprintf("shock: circulation %s at step %d breaks the mirror symmetry", g(c), i))
			break
		}
	}
	mass, vy, zx := ref.shockAt(in.Amplitude)
	if !(relErr(o.mass, mass) <= shockMassTol) {
		bad = append(bad, fmt.Sprintf("shock: mass %s, reference %s", g(o.mass), g(mass)))
	}
	if !(relErr(o.vyAbs, vy) <= shockVyTol) {
		bad = append(bad, fmt.Sprintf("shock: ∫|ρv| %s, reference %s", g(o.vyAbs), g(vy)))
	}
	if gotZX := o.zetaMX / o.zetaM; !(relErr(gotZX, zx) <= shockZetaXTol) {
		bad = append(bad, fmt.Sprintf("shock: heavy-gas centroid %s, reference %s", g(gotZX), g(zx)))
	}
	return bad
}
