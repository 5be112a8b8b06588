package euler

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
)

// randomPatch fills an nx×ny patch, ghosts included, with piecewise
// random states: runs of equal cells (zero slopes and limiter ties),
// jumps of several decades in density and pressure (shock and
// rarefaction branches of the Riemann solver) and a few cells whose
// kinetic energy exceeds the total energy or whose density is
// negative, so the density and pressure floors engage.
func randomPatch(rng *rand.Rand, nx, ny int) *field.PatchData {
	_, d := onePatch(nx, ny)
	pd := d.LocalPatches(0)[0]
	g := pd.GrownBox()
	var w Primitive
	for j := g.Lo[1]; j <= g.Hi[1]; j++ {
		for i := g.Lo[0]; i <= g.Hi[0]; i++ {
			if rng.Intn(3) > 0 {
				w = Primitive{
					Rho:  math.Exp(rng.Float64()*8 - 5),
					U:    rng.Float64()*6 - 3,
					V:    rng.Float64()*6 - 3,
					P:    math.Exp(rng.Float64()*10 - 6),
					Zeta: rng.Float64(),
				}
			}
			u := gas.ToConserved(w)
			switch rng.Intn(40) {
			case 0:
				u[IE] = 0.1 * u[IE]
			case 1:
				u[IRho] = -u[IRho]
			}
			for k := 0; k < NumComp; k++ {
				pd.Set(k, i, j, u[k])
			}
		}
	}
	return pd
}

// pointwisePair is the per-face MUSCL reconstruction ReconstructLine
// must reproduce: the states either side of the face between cells
// (i-1, j) and (i, j) (dir 0) or (i, j-1) and (i, j) (dir 1), from
// the four stencil cells converted afresh.
func pointwisePair(lim Limiter, pd *field.PatchData, i, j, dir int) (Primitive, Primitive) {
	s := Solver{Gas: gas}
	get := func(o int) Primitive {
		if dir == 0 {
			return s.primAt(pd, i+o, j)
		}
		return swapUV(s.primAt(pd, i, j+o))
	}
	wm2, wm1, w0, wp1 := get(-2), get(-1), get(0), get(1)
	slope := func(a, b, c float64) float64 { return lim(b-a, c-b) }
	l := Primitive{
		Rho:  wm1.Rho + 0.5*slope(wm2.Rho, wm1.Rho, w0.Rho),
		U:    wm1.U + 0.5*slope(wm2.U, wm1.U, w0.U),
		V:    wm1.V + 0.5*slope(wm2.V, wm1.V, w0.V),
		P:    wm1.P + 0.5*slope(wm2.P, wm1.P, w0.P),
		Zeta: wm1.Zeta + 0.5*slope(wm2.Zeta, wm1.Zeta, w0.Zeta),
	}
	r := Primitive{
		Rho:  w0.Rho - 0.5*slope(wm1.Rho, w0.Rho, wp1.Rho),
		U:    w0.U - 0.5*slope(wm1.U, w0.U, wp1.U),
		V:    w0.V - 0.5*slope(wm1.V, w0.V, wp1.V),
		P:    w0.P - 0.5*slope(wm1.P, w0.P, wp1.P),
		Zeta: w0.Zeta - 0.5*slope(wm1.Zeta, w0.Zeta, wp1.Zeta),
	}
	for _, s := range []*Primitive{&l, &r} {
		if s.Rho < 1e-12 {
			s.Rho = 1e-12
		}
		if s.P < 1e-12 {
			s.P = 1e-12
		}
	}
	return l, r
}

func sameBits(a, b Primitive) bool {
	return math.Float64bits(a.Rho) == math.Float64bits(b.Rho) &&
		math.Float64bits(a.U) == math.Float64bits(b.U) &&
		math.Float64bits(a.V) == math.Float64bits(b.V) &&
		math.Float64bits(a.P) == math.Float64bits(b.P) &&
		math.Float64bits(a.Zeta) == math.Float64bits(b.Zeta)
}

// TestReconstructLineMatchesPointwise: every face state of every x row
// and y column, for each limiter, equals bit for bit the per-face
// reconstruction from its four stencil cells.
func TestReconstructLineMatchesPointwise(t *testing.T) {
	const nx, ny = 13, 9
	rng := rand.New(rand.NewSource(7))
	limiters := map[string]Limiter{"mc": MC, "minmod": MinMod, "first": FirstOrder}
	for trial := 0; trial < 20; trial++ {
		pd := randomPatch(rng, nx, ny)
		b := pd.Interior()
		w := make([]Primitive, nx+ny+3)
		l, r := make([]Primitive, nx+ny), make([]Primitive, nx+ny)
		for name, lim := range limiters {
			for j := b.Lo[1]; j <= b.Hi[1]; j++ {
				ReconstructLine(gas, lim, pd, b.Lo[0], j, 0, w, l[:nx+1], r[:nx+1])
				for f := 0; f <= nx; f++ {
					wl, wr := pointwisePair(lim, pd, b.Lo[0]+f, j, 0)
					if !sameBits(l[f], wl) || !sameBits(r[f], wr) {
						t.Fatalf("%s x row %d face %d: line (%v, %v), pointwise (%v, %v)", name, j, f, l[f], r[f], wl, wr)
					}
				}
			}
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				ReconstructLine(gas, lim, pd, i, b.Lo[1], 1, w, l[:ny+1], r[:ny+1])
				for f := 0; f <= ny; f++ {
					wl, wr := pointwisePair(lim, pd, i, b.Lo[1]+f, 1)
					if !sameBits(l[f], wl) || !sameBits(r[f], wr) {
						t.Fatalf("%s y column %d face %d: line (%v, %v), pointwise (%v, %v)", name, i, f, l[f], r[f], wl, wr)
					}
				}
			}
		}
	}
}

// pressureFunction is Toro's pressure function for one side evaluated
// from the state alone, as SolveRiemann's hoisted form must reproduce.
func pressureFunction(g Gas, p float64, w Primitive) (f, df float64) {
	c := math.Sqrt(g.Gamma * w.P / w.Rho)
	if p > w.P {
		a := 2 / ((g.Gamma + 1) * w.Rho)
		b := (g.Gamma - 1) / (g.Gamma + 1) * w.P
		sq := math.Sqrt(a / (p + b))
		return (p - w.P) * sq, sq * (1 - (p-w.P)/(2*(p+b)))
	}
	pr := p / w.P
	ex := (g.Gamma - 1) / (2 * g.Gamma)
	f = 2 * c / (g.Gamma - 1) * (math.Pow(pr, ex) - 1)
	df = math.Pow(pr, -(g.Gamma+1)/(2*g.Gamma)) / (w.Rho * c)
	return f, df
}

// TestSolveRiemannMatchesUnhoisted: over random states spanning strong
// shocks and near-vacuum rarefactions, the hoisted Newton iteration
// returns bit for bit the star state and iteration count of the
// iteration that evaluates the pressure function afresh, and PowL/PowR
// equal the power SampleRiemann would otherwise recompute.
func TestSolveRiemannMatchesUnhoisted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	state := func() Primitive {
		return Primitive{Rho: math.Exp(rng.Float64()*10 - 6), U: rng.Float64()*20 - 10, P: math.Exp(rng.Float64()*14 - 8)}
	}
	for _, g := range []Gas{{Gamma: 1.4}, {Gamma: 5.0 / 3}, {Gamma: 1.1}} {
		for n := 0; n < 20000; n++ {
			l, r := state(), state()
			cl := math.Sqrt(g.Gamma * l.P / l.Rho)
			cr := math.Sqrt(g.Gamma * r.P / r.Rho)
			du := r.U - l.U
			p := 0.5*(l.P+r.P) - 0.125*du*(l.Rho+r.Rho)*(cl+cr)
			if p < 1e-10 {
				p = 1e-10
			}
			var it int
			for it = 0; it < 50; it++ {
				flv, dfl := pressureFunction(g, p, l)
				frv, dfr := pressureFunction(g, p, r)
				pNew := p - (flv+frv+du)/(dfl+dfr)
				if pNew < 1e-12 {
					pNew = 1e-12
				}
				if math.Abs(pNew-p) < 1e-12*(pNew+p) {
					p = pNew
					break
				}
				p = pNew
			}
			flv, _ := pressureFunction(g, p, l)
			frv, _ := pressureFunction(g, p, r)
			u := 0.5*(l.U+r.U) + 0.5*(frv-flv)

			sol := SolveRiemann(g, l, r)
			if math.Float64bits(sol.PStar) != math.Float64bits(p) ||
				math.Float64bits(sol.UStar) != math.Float64bits(u) || sol.Iterations != it+1 {
				t.Fatalf("γ=%v %v|%v: got p*=%v u*=%v it=%d, want %v %v %d",
					g.Gamma, l, r, sol.PStar, sol.UStar, sol.Iterations, p, u, it+1)
			}
			ex := (g.Gamma - 1) / (2 * g.Gamma)
			for _, side := range []struct {
				name string
				w    Primitive
				pow  float64
			}{{"left", l, sol.PowL}, {"right", r, sol.PowR}} {
				if sol.PStar > side.w.P {
					continue // shock side: SampleRiemann takes no power
				}
				if want := math.Pow(sol.PStar/side.w.P, ex); math.Float64bits(side.pow) != math.Float64bits(want) {
					t.Fatalf("γ=%v %v|%v: %s power %v, want %v", g.Gamma, l, r, side.name, side.pow, want)
				}
			}
		}
	}
}

// TestMaxMachPropagatesNaN: a NaN cell anywhere in the interior makes
// the patch's maximum Mach number NaN, wherever the scan meets it.
func TestMaxMachPropagatesNaN(t *testing.T) {
	s := NewSolver(1.4, GodunovFlux)
	for _, cell := range [][2]int{{0, 0}, {3, 5}, {7, 7}} {
		_, d := onePatch(8, 8)
		pd := d.LocalPatches(0)[0]
		g := pd.GrownBox()
		for j := g.Lo[1]; j <= g.Hi[1]; j++ {
			for i := g.Lo[0]; i <= g.Hi[0]; i++ {
				setPrim(pd, i, j, Primitive{Rho: 1.4, U: 2, P: 1})
			}
		}
		pd.Set(IE, cell[0], cell[1], math.NaN())
		if m := s.MaxMach(pd); !math.IsNaN(m) {
			t.Errorf("NaN at %v: max mach = %v, want NaN", cell, m)
		}
	}
}

// rhsBenchPatch is a 2D Riemann problem on an n×n patch: four
// quadrants with shocks, rarefactions and contacts between them.
func rhsBenchPatch(n int) (pd, out *field.PatchData) {
	_, d := onePatch(n, n)
	pd = d.LocalPatches(0)[0]
	g := pd.GrownBox()
	quad := [4]Primitive{
		{Rho: 1.5, P: 1.5},
		{Rho: 0.5323, U: 1.206, P: 0.3, Zeta: 1},
		{Rho: 0.138, U: 1.206, V: 1.206, P: 0.029},
		{Rho: 0.5323, V: 1.206, P: 0.3, Zeta: 1},
	}
	for j := g.Lo[1]; j <= g.Hi[1]; j++ {
		for i := g.Lo[0]; i <= g.Hi[0]; i++ {
			q := 0
			if i < n/2 {
				q = 1
			}
			if j < n/2 {
				q = 3 - q
			}
			setPrim(pd, i, j, quad[q])
		}
	}
	return pd, field.NewPatchData(pd.Patch, NumComp, 2)
}

// TestRHSRegionAllocFree: once warmed up, RHSRegion allocates nothing,
// serially and on a 2-wide pool, on the whole patch and on a sub-box.
func TestRHSRegionAllocFree(t *testing.T) {
	pd, out := rhsBenchPatch(32)
	for _, width := range []int{1, 2} {
		s := NewSolver(1.4, GodunovFlux)
		if width > 1 {
			s.Pool = exec.NewPool(width)
		}
		for _, region := range []amr.Box{pd.Interior(), amr.NewBox(3, 5, 20, 9)} {
			s.RHSRegion(pd, out, region, 1.0/32, 1.0/32)
			if n := testing.AllocsPerRun(20, func() { s.RHSRegion(pd, out, region, 1.0/32, 1.0/32) }); n != 0 {
				t.Errorf("width %d, region %v: %v allocs/op, want 0", width, region, n)
			}
		}
	}
}

// TestRHSRegionConcurrentCalls: one Solver serving several goroutines
// at once, each on a 2-wide pool, recycles sweep state and line buffers
// without sharing them: every caller gets the serial result bit for
// bit.
func TestRHSRegionConcurrentCalls(t *testing.T) {
	pd, want := rhsBenchPatch(24)
	NewSolver(1.4, GodunovFlux).RHSPatch(pd, want, 1.0/24, 1.0/24)
	s := NewSolver(1.4, GodunovFlux)
	s.Pool = exec.NewPool(2)
	const callers = 4
	outs := make([]*field.PatchData, callers)
	var wg sync.WaitGroup
	for c := range outs {
		outs[c] = field.NewPatchData(pd.Patch, NumComp, 2)
		wg.Add(1)
		go func(out *field.PatchData) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				s.RHSPatch(pd, out, 1.0/24, 1.0/24)
			}
		}(outs[c])
	}
	wg.Wait()
	b := pd.Interior()
	for c, out := range outs {
		for k := 0; k < NumComp; k++ {
			for j := b.Lo[1]; j <= b.Hi[1]; j++ {
				for i := b.Lo[0]; i <= b.Hi[0]; i++ {
					if math.Float64bits(out.At(k, i, j)) != math.Float64bits(want.At(k, i, j)) {
						t.Fatalf("caller %d: rhs[%d](%d,%d) = %v, serial %v", c, k, i, j, out.At(k, i, j), want.At(k, i, j))
					}
				}
			}
		}
	}
}

// BenchmarkRHSPatch: the MUSCL + exact-Godunov RHS of one 64×64 patch
// on a serial solver.
func BenchmarkRHSPatch(b *testing.B) {
	pd, out := rhsBenchPatch(64)
	s := NewSolver(1.4, GodunovFlux)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RHSPatch(pd, out, 1.0/64, 1.0/64)
	}
}
