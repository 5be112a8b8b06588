package euler

import (
	"math"
	"sync"

	"ccahydro/internal/amr"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
)

// FluxFunc computes the interface flux of an x-sweep from limited
// left/right states — the port the GodunovFlux and EFMFlux components
// provide, and the seam the paper swaps for strong shocks.
type FluxFunc func(g Gas, l, r Primitive) Conserved

// Limiter limits a slope given backward and forward differences.
type Limiter func(a, b float64) float64

// MinMod is the classic diffusive limiter.
func MinMod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

// MC is the monotonized-central limiter (sharper than minmod).
func MC(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	c := 0.5 * (a + b)
	lim := 2 * math.Min(math.Abs(a), math.Abs(b))
	if math.Abs(c) > lim {
		if c > 0 {
			return lim
		}
		return -lim
	}
	return c
}

// FirstOrder disables reconstruction (piecewise-constant states).
func FirstOrder(a, b float64) float64 { return 0 }

// StatesFunc reconstructs the (left, right) face states between cells
// (i-1, j) and (i, j) for dir 0, or (i, j-1) and (i, j) for dir 1 (with
// u/v swapped so the x-flux machinery applies) — the paper's States
// component seam.
type StatesFunc func(g Gas, pd *field.PatchData, i, j, dir int) (Primitive, Primitive)

// Solver advances the 2D Euler system on AMR patches. A Solver value
// with a nil or width-1 Pool is strictly serial; all methods are
// read-only on the Solver itself, so one Solver may serve concurrent
// RHSPatch calls on different patches.
type Solver struct {
	Gas  Gas
	Flux FluxFunc
	// States reconstructs face states; defaults to MUSCL with the
	// Limiter field when nil. Must be safe for concurrent calls.
	States  StatesFunc
	Limiter Limiter
	// CFL is the Courant number (default 0.45 when zero).
	CFL float64
	// Pool, when non-nil, fans the row/column sweeps of RHSPatch out
	// across workers. Rows (and columns) write disjoint cells of out,
	// and the sweep decomposition is independent of worker count, so
	// results are bit-for-bit identical to the serial sweeps.
	Pool *exec.Pool
}

// NewSolver builds a second-order Godunov solver with MC limiting.
func NewSolver(gamma float64, flux FluxFunc) *Solver {
	return &Solver{Gas: Gas{Gamma: gamma}, Flux: flux, Limiter: MC, CFL: 0.45}
}

// MUSCLStates returns a StatesFunc doing primitive-variable MUSCL
// reconstruction with the given limiter. The closure holds no mutable
// state, so it is safe for concurrent sweeps.
func MUSCLStates(lim Limiter) StatesFunc {
	return func(g Gas, pd *field.PatchData, i, j, dir int) (Primitive, Primitive) {
		s := Solver{Gas: g, Limiter: lim}
		return s.limitedPair(pd, i, j, dir)
	}
}

// primAt loads the primitive state at cell (i, j) of a conserved-data
// patch.
func (s *Solver) primAt(pd *field.PatchData, i, j int) Primitive {
	var u Conserved
	for k := 0; k < NumComp; k++ {
		u[k] = pd.At(k, i, j)
	}
	return s.Gas.ToPrimitive(u)
}

// limitedPair reconstructs the (left-of-face, right-of-face) states at
// the face between cells (i-1, j) and (i, j) of an x-sweep, using
// primitive-variable MUSCL with the solver's limiter. dir selects the
// sweep direction: 0 for x, 1 for y (j varies then).
func (s *Solver) limitedPair(pd *field.PatchData, i, j, dir int) (Primitive, Primitive) {
	get := func(o int) Primitive {
		if dir == 0 {
			return s.primAt(pd, i+o, j)
		}
		return swapUV(s.primAt(pd, i, j+o))
	}
	wm2, wm1, w0, wp1 := get(-2), get(-1), get(0), get(1)
	slope := func(a, b, c float64) float64 { return s.Limiter(b-a, c-b) }
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
	if l.Rho < 1e-12 {
		l.Rho = 1e-12
	}
	if r.Rho < 1e-12 {
		r.Rho = 1e-12
	}
	if l.P < 1e-12 {
		l.P = 1e-12
	}
	if r.P < 1e-12 {
		r.P = 1e-12
	}
	return l, r
}

// serialPool backs RHSPatch when the Solver has no Pool: width 1, so
// ForEachChunk degenerates to an inline loop.
var serialPool = exec.NewPool(1)

// sweepPool recycles flux-line buffers across RHSPatch calls. A
// sync.Pool (rather than solver-held scratch) keeps Solver values
// copyable and the kernel safe under nested parallelism, where one
// shared Solver serves several concurrent patch evaluations.
var sweepPool sync.Pool

func getSweep(n int) []Conserved {
	if v := sweepPool.Get(); v != nil {
		if s := *v.(*[]Conserved); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]Conserved, n)
}

func putSweep(s []Conserved) { sweepPool.Put(&s) }

// RHSPatch writes dU/dt = -dF/dx - dG/dy into out over the interior of
// pd. The patch's ghost cells (2 layers) must be filled beforehand.
// With a Pool set, rows of the x sweep and columns of the y sweep run
// in parallel: each writes its own cells of out, and the two sweeps are
// separated by a barrier (ForEachChunk blocks), so y-sweep Adds always
// see completed x-sweep Sets.
func (s *Solver) RHSPatch(pd, out *field.PatchData, dx, dy float64) {
	s.RHSRegion(pd, out, pd.Interior(), dx, dy)
}

// RHSRegion is RHSPatch restricted to a sub-box of the interior. Each
// face flux is a pure function of the four stencil cells behind it, so
// fluxes on a region boundary are recomputed identically to a
// full-patch sweep and any disjoint partition of the interior
// reproduces RHSPatch bit for bit. Cells of region must stay at least
// two cells from data the caller considers unfilled (the MUSCL stencil
// reads ±2 in the sweep direction).
func (s *Solver) RHSRegion(pd, out *field.PatchData, region amr.Box, dx, dy float64) {
	b := region
	if b.Empty() {
		return
	}
	nx, ny := b.Size()
	invDx, invDy := 1/dx, 1/dy

	states := s.States
	if states == nil {
		states = MUSCLStates(s.Limiter)
	}
	pool := s.Pool
	if pool == nil {
		pool = serialPool
	}

	// X sweep: fluxes at nx+1 faces per row; rows fan out.
	pool.ForEachChunk(ny, func(_, lo, hi int) {
		fx := getSweep(nx + 1)
		for jj := lo; jj < hi; jj++ {
			j := b.Lo[1] + jj
			for fi := 0; fi <= nx; fi++ {
				i := b.Lo[0] + fi
				l, r := states(s.Gas, pd, i, j, 0)
				fx[fi] = s.Flux(s.Gas, l, r)
			}
			for ii := 0; ii < nx; ii++ {
				i := b.Lo[0] + ii
				for k := 0; k < NumComp; k++ {
					out.Set(k, i, j, -(fx[ii+1][k]-fx[ii][k])*invDx)
				}
			}
		}
		putSweep(fx)
	})

	// Y sweep: columns fan out.
	pool.ForEachChunk(nx, func(_, lo, hi int) {
		fy := getSweep(ny + 1)
		for ii := lo; ii < hi; ii++ {
			i := b.Lo[0] + ii
			for fj := 0; fj <= ny; fj++ {
				j := b.Lo[1] + fj
				l, r := states(s.Gas, pd, i, j, 1)
				fy[fj] = swapFlux(s.Flux(s.Gas, l, r))
			}
			for jj := 0; jj < ny; jj++ {
				j := b.Lo[1] + jj
				for k := 0; k < NumComp; k++ {
					out.Add(k, i, j, -(fy[jj+1][k]-fy[jj][k])*invDy)
				}
			}
		}
		putSweep(fy)
	})
}

// StableDt returns the CFL-limited time step for one patch; a NaN
// state anywhere in the interior makes it NaN.
func (s *Solver) StableDt(pd *field.PatchData, dx, dy float64) float64 {
	cfl := s.CFL
	if cfl <= 0 {
		cfl = 0.45
	}
	b := pd.Interior()
	minDt := math.Inf(1)
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			w := s.primAt(pd, i, j)
			sx, sy := s.Gas.MaxWaveSpeed(w)
			dt := 1 / (sx/dx + sy/dy)
			if dt < minDt || math.IsNaN(dt) {
				minDt = dt
			}
		}
	}
	return cfl * minDt
}

// Circulation computes Γ = Σ ω dA over interior cells whose zeta lies
// in (zlo, zhi) — the interfacial circulation diagnostic of the paper's
// Fig 7 (ω = ∂v/∂x − ∂u/∂y by central differences; ghosts must be
// filled).
func (s *Solver) Circulation(pd *field.PatchData, dx, dy, zlo, zhi float64) float64 {
	b := pd.Interior()
	var gamma float64
	vel := func(i, j int) (float64, float64) {
		rho := pd.At(IRho, i, j)
		if rho < 1e-12 {
			rho = 1e-12
		}
		return pd.At(IMx, i, j) / rho, pd.At(IMy, i, j) / rho
	}
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			z := pd.At(IZeta, i, j) / math.Max(pd.At(IRho, i, j), 1e-12)
			if z < zlo || z > zhi {
				continue
			}
			_, vE := vel(i+1, j)
			_, vW := vel(i-1, j)
			uN, _ := vel(i, j+1)
			uS, _ := vel(i, j-1)
			om := (vE-vW)/(2*dx) - (uN-uS)/(2*dy)
			gamma += om * dx * dy
		}
	}
	return gamma
}

// MaxMach returns the maximum Mach number over the patch interior
// (diagnostics for the strong-shock runs).
func (s *Solver) MaxMach(pd *field.PatchData) float64 {
	b := pd.Interior()
	var m float64
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			w := s.primAt(pd, i, j)
			c := s.Gas.SoundSpeed(w)
			if v := math.Sqrt(w.U*w.U+w.V*w.V) / c; v > m {
				m = v
			}
		}
	}
	return m
}
