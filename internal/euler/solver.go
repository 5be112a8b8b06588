package euler

import (
	"math"
	"sync"

	"ccahydro/internal/amr"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
)

// FluxFunc computes the interface flux of an x-sweep from limited
// left/right states, one face at a time — the pointwise Riemann
// kernels GodunovFlux, EFMFlux and HLLCFlux.
type FluxFunc func(g Gas, l, r Primitive) Conserved

// Line lifts a pointwise flux to a sweep line: f[k] = fn(g, l[k], r[k]).
func (fn FluxFunc) Line(g Gas, l, r []Primitive, f []Conserved) {
	l, r = l[:len(f)], r[:len(f)]
	for k := range f {
		f[k] = fn(g, l[k], r[k])
	}
}

// LineFluxFunc fills f with the x-sweep fluxes of one line of faces
// from their limited left/right states — the port the GodunovFlux,
// EFMFlux and HLLCFlux components provide, and the seam the paper swaps
// for strong shocks.
type LineFluxFunc func(g Gas, l, r []Primitive, f []Conserved)

// LineStatesFunc reconstructs the left/right face states of one sweep
// line (the layout of ReconstructLine) — the paper's States component
// seam.
type LineStatesFunc func(g Gas, pd *field.PatchData, i, j, dir int, w, l, r []Primitive)

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

// Solver advances the 2D Euler system on AMR patches. A Solver value
// with a nil or width-1 Pool is strictly serial; all methods are
// read-only on the Solver itself, so one Solver may serve concurrent
// RHSPatch calls on different patches.
type Solver struct {
	Gas Gas
	// Flux computes the fluxes of one sweep line. Must be safe for
	// concurrent calls.
	Flux LineFluxFunc
	// States reconstructs the face states of one sweep line; defaults
	// to ReconstructLine with the Limiter field when nil. Must be safe
	// for concurrent calls.
	States  LineStatesFunc
	Limiter Limiter
	// CFL is the Courant number (default 0.45 when zero).
	CFL float64
	// Pool, when non-nil, fans the row/column sweeps of RHSPatch out
	// across workers. Rows (and columns) write disjoint cells of out,
	// and the sweep decomposition is independent of worker count, so
	// results are bit-for-bit identical to the serial sweeps.
	Pool *exec.Pool
}

// NewSolver builds a second-order Godunov solver with MC limiting from
// a pointwise flux, applied face by face along each sweep line.
func NewSolver(gamma float64, flux FluxFunc) *Solver {
	return &Solver{Gas: Gas{Gamma: gamma}, Flux: flux.Line, Limiter: MC, CFL: 0.45}
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

// ReconstructLine does primitive-variable MUSCL reconstruction with
// limiter lim along one sweep line of len(l) faces. Face f lies between
// cells (i+f-1, j) and (i+f, j) for dir 0, or (i, j+f-1) and (i, j+f)
// for dir 1, where u and v are swapped so the x-flux machinery applies;
// l[f] and r[f] receive its left and right states. w is caller scratch
// of at least len(l)+3 primitives: each stencil cell, i-2 through
// i+len(l) along the line, is converted once, and each cell's limited
// slope serves both of its faces.
func ReconstructLine(g Gas, lim Limiter, pd *field.PatchData, i, j, dir int, w, l, r []Primitive) {
	nf := len(l)
	w, r = w[:nf+3], r[:nf]
	off, step := pd.Offset(i-2, j), 1
	if dir != 0 {
		off, step = pd.Offset(i, j-2), pd.Stride()
	}
	rho, mx, my, e, z := pd.Comp(IRho), pd.Comp(IMx), pd.Comp(IMy), pd.Comp(IE), pd.Comp(IZeta)
	for c := range w {
		p := g.ToPrimitive(Conserved{rho[off], mx[off], my[off], e[off], z[off]})
		if dir != 0 {
			p = swapUV(p)
		}
		w[c] = p
		off += step
	}
	// w[c] is cell i+c-2: left of face c-1 and right of face c-2, so
	// its slope gives l[c-1] and r[c-2].
	for c := 1; c <= nf+1; c++ {
		wm, w0, wp := &w[c-1], &w[c], &w[c+1]
		var d Primitive
		d.Rho = lim(w0.Rho-wm.Rho, wp.Rho-w0.Rho)
		d.U = lim(w0.U-wm.U, wp.U-w0.U)
		d.V = lim(w0.V-wm.V, wp.V-w0.V)
		d.P = lim(w0.P-wm.P, wp.P-w0.P)
		d.Zeta = lim(w0.Zeta-wm.Zeta, wp.Zeta-w0.Zeta)
		if c <= nf {
			l[c-1] = floorFace(Primitive{
				Rho:  w0.Rho + 0.5*d.Rho,
				U:    w0.U + 0.5*d.U,
				V:    w0.V + 0.5*d.V,
				P:    w0.P + 0.5*d.P,
				Zeta: w0.Zeta + 0.5*d.Zeta,
			})
		}
		if c >= 2 {
			r[c-2] = floorFace(Primitive{
				Rho:  w0.Rho - 0.5*d.Rho,
				U:    w0.U - 0.5*d.U,
				V:    w0.V - 0.5*d.V,
				P:    w0.P - 0.5*d.P,
				Zeta: w0.Zeta - 0.5*d.Zeta,
			})
		}
	}
}

// floorFace applies the density and pressure floors (1e-12) to a
// reconstructed face state.
func floorFace(w Primitive) Primitive {
	if w.Rho < 1e-12 {
		w.Rho = 1e-12
	}
	if w.P < 1e-12 {
		w.P = 1e-12
	}
	return w
}

// serialPool backs RHSPatch when the Solver has no Pool: width 1, so
// ForEachChunk degenerates to an inline loop.
var serialPool = exec.NewPool(1)

// lineBuf is one worker's scratch for a sweep line: the stencil's
// primitives, the face states and the face fluxes.
type lineBuf struct {
	w, l, r []Primitive
	f       []Conserved
}

// faces sizes the buffers for a line of nf faces, growing them only
// when a longer line than any before comes along.
func (lb *lineBuf) faces(nf int) {
	if cap(lb.f) < nf {
		lb.w = make([]Primitive, nf+3)
		lb.l = make([]Primitive, nf)
		lb.r = make([]Primitive, nf)
		lb.f = make([]Conserved, nf)
	}
	lb.w, lb.l, lb.r, lb.f = lb.w[:nf+3], lb.l[:nf], lb.r[:nf], lb.f[:nf]
}

// sweep is the state of one RHSRegion call: its arguments, one line
// buffer per pool chunk, and the two sweep bodies bound once as method
// values, so handing them to the pool allocates nothing.
type sweep struct {
	s            *Solver
	pd, out      *field.PatchData
	b            amr.Box
	invDx, invDy float64
	lines        []lineBuf
	xfn, yfn     func(w, lo, hi int)
}

// sweeps recycles sweep state across RHSRegion calls. It is a
// mutex-guarded free list rather than a sync.Pool, which may drop
// entries at any GC (and at random under the race detector) and so
// would make the steady state allocate. The list holds at most as many
// entries as RHSRegion calls ever ran at once, and keeps Solver values
// copyable and safe under nested parallelism, where one shared Solver
// serves several concurrent patch evaluations.
var sweeps struct {
	sync.Mutex
	free []*sweep
}

func getSweep() *sweep {
	sweeps.Lock()
	defer sweeps.Unlock()
	if n := len(sweeps.free); n > 0 {
		sw := sweeps.free[n-1]
		sweeps.free = sweeps.free[:n-1]
		return sw
	}
	sw := &sweep{}
	sw.xfn, sw.yfn = sw.sweepX, sw.sweepY
	return sw
}

func putSweep(sw *sweep) {
	sw.s, sw.pd, sw.out = nil, nil, nil
	sweeps.Lock()
	sweeps.free = append(sweeps.free, sw)
	sweeps.Unlock()
}

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
// reads ±2 in the sweep direction). The states and flux seams are
// called once per row of the x sweep and once per column of the y
// sweep; a warmed-up call allocates nothing.
func (s *Solver) RHSRegion(pd, out *field.PatchData, region amr.Box, dx, dy float64) {
	if region.Empty() {
		return
	}
	pool := s.Pool
	if pool == nil {
		pool = serialPool
	}
	sw := getSweep()
	sw.s, sw.pd, sw.out, sw.b = s, pd, out, region
	sw.invDx, sw.invDy = 1/dx, 1/dy
	if n := pool.Width(); len(sw.lines) < n {
		sw.lines = append(sw.lines, make([]lineBuf, n-len(sw.lines))...)
	}
	nx, ny := region.Size()
	// X sweep: rows fan out. Y sweep: columns fan out.
	pool.ForEachChunk(ny, sw.xfn)
	pool.ForEachChunk(nx, sw.yfn)
	putSweep(sw)
}

// states reconstructs one line into lb.
func (s *Solver) states(pd *field.PatchData, i, j, dir int, lb *lineBuf) {
	if s.States != nil {
		s.States(s.Gas, pd, i, j, dir, lb.w, lb.l, lb.r)
		return
	}
	ReconstructLine(s.Gas, s.Limiter, pd, i, j, dir, lb.w, lb.l, lb.r)
}

// sweepX computes the nx+1 face fluxes of each row in [lo, hi) and
// sets out to their divergence.
func (sw *sweep) sweepX(w, lo, hi int) {
	s, b, out := sw.s, sw.b, sw.out
	nx, _ := b.Size()
	lb := &sw.lines[w]
	lb.faces(nx + 1)
	for jj := lo; jj < hi; jj++ {
		j := b.Lo[1] + jj
		s.states(sw.pd, b.Lo[0], j, 0, lb)
		s.Flux(s.Gas, lb.l, lb.r, lb.f)
		fx := lb.f
		for k := 0; k < NumComp; k++ {
			o := out.Offset(b.Lo[0], j)
			row := out.Comp(k)[o : o+nx]
			for ii := range row {
				row[ii] = -(fx[ii+1][k] - fx[ii][k]) * sw.invDx
			}
		}
	}
}

// ySweepComp maps each conserved component to the x-sweep flux
// component that carries it in a y sweep, undoing the u/v swap of the
// y-sweep states.
var ySweepComp = [NumComp]int{IRho, IMy, IMx, IE, IZeta}

// sweepY computes the ny+1 face fluxes of each column in [lo, hi) and
// adds their divergence to out.
func (sw *sweep) sweepY(w, lo, hi int) {
	s, b, out := sw.s, sw.b, sw.out
	_, ny := b.Size()
	lb := &sw.lines[w]
	lb.faces(ny + 1)
	stride := out.Stride()
	for ii := lo; ii < hi; ii++ {
		i := b.Lo[0] + ii
		s.states(sw.pd, i, b.Lo[1], 1, lb)
		s.Flux(s.Gas, lb.l, lb.r, lb.f)
		fy := lb.f
		for k := 0; k < NumComp; k++ {
			col, kf := out.Comp(k), ySweepComp[k]
			o := out.Offset(i, b.Lo[1])
			for jj := 0; jj < ny; jj++ {
				col[o] += -(fy[jj+1][kf] - fy[jj][kf]) * sw.invDy
				o += stride
			}
		}
	}
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
// (diagnostics for the strong-shock runs); a NaN state anywhere in the
// interior makes it NaN.
func (s *Solver) MaxMach(pd *field.PatchData) float64 {
	b := pd.Interior()
	var m float64
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			w := s.primAt(pd, i, j)
			c := s.Gas.SoundSpeed(w)
			if v := math.Sqrt(w.U*w.U+w.V*w.V) / c; v > m || math.IsNaN(v) {
				m = v
			}
		}
	}
	return m
}
