package components

import (
	"math"
	"sync"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/euler"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
)

// States reconstructs limited left/right face states (paper Sec. 4.3).
// Parameter "limiter" selects mc (default), minmod or first.
type States struct {
	lim euler.Limiter
}

// SetServices implements cca.Component.
func (st *States) SetServices(svc cca.Services) error {
	switch svc.Parameters().GetString("limiter", "mc") {
	case "minmod":
		st.lim = euler.MinMod
	case "first":
		st.lim = euler.FirstOrder
	default:
		st.lim = euler.MC
	}
	return svc.AddProvidesPort(st, "states", StatesPortType)
}

// Line implements StatesPort.
func (st *States) Line(g euler.Gas, pd *field.PatchData, i, j, dir int, w, l, r []euler.Primitive) {
	euler.ReconstructLine(g, st.lim, pd, i, j, dir, w, l, r)
}

// GodunovFluxComp provides the exact-Riemann Godunov flux.
type GodunovFluxComp struct{}

// SetServices implements cca.Component.
func (gf *GodunovFluxComp) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(gf, "flux", FluxPortType)
}

// Line implements FluxPort.
func (gf *GodunovFluxComp) Line(g euler.Gas, l, r []euler.Primitive, f []euler.Conserved) {
	euler.FluxFunc(euler.GodunovFlux).Line(g, l, r, f)
}

// HLLCFluxComp provides the HLLC approximate Riemann flux — a third
// interchangeable flux component (cheaper than the exact solver,
// sharper than EFM), demonstrating the same swap the paper performs.
type HLLCFluxComp struct{}

// SetServices implements cca.Component.
func (hf *HLLCFluxComp) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(hf, "flux", FluxPortType)
}

// Line implements FluxPort.
func (hf *HLLCFluxComp) Line(g euler.Gas, l, r []euler.Primitive, f []euler.Conserved) {
	euler.FluxFunc(euler.HLLCFlux).Line(g, l, r, f)
}

// EFMFluxComp provides Pullin's Equilibrium Flux Method — the paper's
// drop-in replacement for GodunovFlux at Mach ≈ 3.5.
type EFMFluxComp struct{}

// SetServices implements cca.Component.
func (ef *EFMFluxComp) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(ef, "flux", FluxPortType)
}

// Line implements FluxPort.
func (ef *EFMFluxComp) Line(g euler.Gas, l, r []euler.Primitive, f []euler.Conserved) {
	euler.FluxFunc(euler.EFMFlux).Line(g, l, r, f)
}

// InviscidFlux is the adaptor that supplies the right-hand side of the
// Euler equations patch by patch: it uses a States component to set up
// the Riemann problems along each sweep line and passes them to the
// connected flux component for the solution (paper Sec. 4.3). Both
// ports are called once per line, not once per face, so the component
// boundary is crossed O(rows + columns) times per patch.
type InviscidFlux struct {
	svc cca.Services
	// The assembled solver resolves once: ports are interface values
	// after connection, and concurrent EvalPatch calls (the integrator
	// fans patches out) must not mutate component state.
	once   sync.Once
	solved euler.Solver
}

// SetServices implements cca.Component.
func (iv *InviscidFlux) SetServices(svc cca.Services) error {
	iv.svc = svc
	for _, u := range [][2]string{
		{"states", StatesPortType},
		{"flux", FluxPortType},
		{"gasProperties", KeyValuePortType},
	} {
		if err := svc.RegisterUsesPort(u[0], u[1]); err != nil {
			return err
		}
	}
	if err := registerExecPort(svc); err != nil {
		return err
	}
	return svc.AddProvidesPort(iv, "patchRHS", PatchRHSPortType)
}

func (iv *InviscidFlux) solver() *euler.Solver {
	iv.once.Do(func() {
		sp, err := iv.svc.GetPort("states")
		if err != nil {
			panic(err)
		}
		iv.svc.ReleasePort("states")
		fp, err := iv.svc.GetPort("flux")
		if err != nil {
			panic(err)
		}
		iv.svc.ReleasePort("flux")
		gp, err := iv.svc.GetPort("gasProperties")
		if err != nil {
			panic(err)
		}
		iv.svc.ReleasePort("gasProperties")
		gamma, ok := gp.(KeyValuePort).Value("gamma")
		if !ok {
			gamma = euler.AirGamma
		}
		iv.solved = euler.Solver{
			Gas:    euler.Gas{Gamma: gamma},
			Flux:   fp.(FluxPort).Line,
			States: sp.(StatesPort).Line,
			// Nested parallelism: the integrator fans patches out, and
			// within a patch the solver fans rows out on the same pool
			// (caller participation makes the nesting deadlock-free).
			Pool: optionalPool(iv.svc),
		}
	})
	return &iv.solved
}

// EvalPatch implements PatchRHSPort. Safe for concurrent calls on
// different patches.
func (iv *InviscidFlux) EvalPatch(pd, out *field.PatchData, dx, dy float64) {
	iv.solver().RHSPatch(pd, out, dx, dy)
}

// EvalRegion implements RegionRHSPort: the same flux divergence
// restricted to a sub-box. Face fluxes are pure functions of the cells
// behind them, so disjoint regions reproduce EvalPatch bit for bit.
func (iv *InviscidFlux) EvalRegion(pd, out *field.PatchData, region amr.Box, dx, dy float64) {
	iv.solver().RHSRegion(pd, out, region, dx, dy)
}

// CharacteristicQuantities determines the characteristic speeds for
// dynamic time-step control (paper Sec. 4.3).
type CharacteristicQuantities struct {
	svc cca.Services
}

// SetServices implements cca.Component.
func (cq *CharacteristicQuantities) SetServices(svc cca.Services) error {
	cq.svc = svc
	if err := svc.RegisterUsesPort("gasProperties", KeyValuePortType); err != nil {
		return err
	}
	if err := registerExecPort(svc); err != nil {
		return err
	}
	return svc.AddProvidesPort(cq, "characteristics", CharacteristicsPortType)
}

// StableDt implements CharacteristicsPort: the CFL-limited step of a
// level, reduced across the cohort. Per-patch scans are independent
// and fan out over the pool; min is order-independent, so the parallel
// fold equals the serial one bit-for-bit.
func (cq *CharacteristicQuantities) StableDt(mesh MeshPort, name string, level int) float64 {
	gp, err := cq.svc.GetPort("gasProperties")
	if err != nil {
		panic(err)
	}
	cq.svc.ReleasePort("gasProperties")
	gamma, ok := gp.(KeyValuePort).Value("gamma")
	if !ok {
		gamma = euler.AirGamma
	}
	cfl := cq.svc.Parameters().GetFloat("cfl", 0.45)
	s := &euler.Solver{Gas: euler.Gas{Gamma: gamma}, CFL: cfl}
	d := mesh.Field(name)
	dx, dy := mesh.Spacing(level)
	patches := d.LocalPatches(level)
	partial := make([]float64, len(patches))
	optionalPool(cq.svc).ForEach(len(patches), func(_, i int) {
		partial[i] = s.StableDt(patches[i], dx, dy)
	})
	dt := math.Inf(1)
	for _, v := range partial {
		if v < dt || math.IsNaN(v) {
			dt = v
		}
	}
	if comm := cq.svc.Comm(); comm != nil && comm.Size() > 1 {
		dt = comm.AllreduceScalar(mpi.OpMin, dt)
	}
	return dt
}

// BoundaryConditions sets the shock-tube walls: reflecting above and
// below, outflow left and right by default (paper Sec. 4.3).
// Parameters "xlo", "xhi", "ylo", "yhi" accept "outflow" or "reflect".
type BoundaryConditions struct {
	svc cca.Services
}

// SetServices implements cca.Component.
func (bc *BoundaryConditions) SetServices(svc cca.Services) error {
	bc.svc = svc
	if err := svc.RegisterUsesPort("mesh", MeshPortType); err != nil {
		return err
	}
	return svc.AddProvidesPort(bc, "bc", BCPortType)
}

func (bc *BoundaryConditions) spec(side string, def string, normalComp int) field.BCSpec {
	switch bc.svc.Parameters().GetString(side, def) {
	case "reflect":
		return field.BCSpec{Kind: field.BCReflect, OddComps: []int{normalComp}}
	default:
		return field.BCSpec{Kind: field.BCOutflow}
	}
}

// Apply implements BCPort for the conserved hydro field.
func (bc *BoundaryConditions) Apply(name string, level int) {
	mp, err := bc.svc.GetPort("mesh")
	if err != nil {
		panic(err)
	}
	bc.svc.ReleasePort("mesh")
	mesh := mp.(MeshPort)
	bcs := field.BCSet{
		field.XLo: bc.spec("xlo", "outflow", euler.IMx),
		field.XHi: bc.spec("xhi", "outflow", euler.IMx),
		field.YLo: bc.spec("ylo", "reflect", euler.IMy),
		field.YHi: bc.spec("yhi", "reflect", euler.IMy),
	}
	mesh.Field(name).ApplyPhysicalBCs(level, bcs)
}

// ProlongRestrict performs the cell-centered interpolations between
// levels (paper Sec. 4.3).
type ProlongRestrict struct{}

// SetServices implements cca.Component.
func (pr *ProlongRestrict) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(pr, "prolongRestrict", ProlongRestrictPortType)
}

// Prolong implements ProlongRestrictPort.
func (pr *ProlongRestrict) Prolong(mesh MeshPort, name string, level int) {
	mesh.Field(name).ProlongLevel(level, field.ProlongLinear)
}

// Restrict implements ProlongRestrictPort.
func (pr *ProlongRestrict) Restrict(mesh MeshPort, name string, level int) {
	mesh.Field(name).RestrictLevel(level)
}

// FillCoarseFine implements ProlongRestrictPort.
func (pr *ProlongRestrict) FillCoarseFine(mesh MeshPort, name string, level int) {
	mesh.Field(name).FillCoarseFineGhosts(level, field.ProlongLinear)
}

// ConicalInterfaceIC sets up the paper's shock-tube problem: Air and
// Freon (density ratio from the GasProperties database) separated by an
// oblique interface, ruptured by a rightward-moving shock of the given
// Mach number. Nondimensional units: pre-shock air has rho=1, p=1.
// Parameters:
//
//	interfaceX   interface foot position as a fraction of Lx (default 0.40)
//	angleDeg     interface angle from the vertical (default 30)
//	shockX       initial shock position fraction (default 0.20)
type ConicalInterfaceIC struct {
	svc cca.Services
}

// SetServices implements cca.Component.
func (ci *ConicalInterfaceIC) SetServices(svc cca.Services) error {
	ci.svc = svc
	if err := svc.RegisterUsesPort("gasProperties", KeyValuePortType); err != nil {
		return err
	}
	return svc.AddProvidesPort(ci, "ic", ICFieldPortType)
}

// PostShockState returns the Rankine–Hugoniot state behind a Mach-M
// shock moving into still gas (rho1, p1).
func PostShockState(gamma, mach, rho1, p1 float64) euler.Primitive {
	c1 := math.Sqrt(gamma * p1 / rho1)
	m2 := mach * mach
	p2 := p1 * (1 + 2*gamma/(gamma+1)*(m2-1))
	rho2 := rho1 * (gamma + 1) * m2 / ((gamma-1)*m2 + 2)
	u2 := 2 * c1 / (gamma + 1) * (m2 - 1) / mach
	return euler.Primitive{Rho: rho2, U: u2, P: p2}
}

// Impose implements ICFieldPort on the conserved field.
func (ci *ConicalInterfaceIC) Impose(mesh MeshPort, name string) {
	gp, err := ci.svc.GetPort("gasProperties")
	if err != nil {
		panic(err)
	}
	ci.svc.ReleasePort("gasProperties")
	db := gp.(KeyValuePort)
	gamma, _ := db.Value("gamma")
	if gamma == 0 {
		gamma = euler.AirGamma
	}
	ratio, ok := db.Value("densityRatio")
	if !ok {
		ratio = 3.0
	}
	mach, ok := db.Value("mach")
	if !ok {
		mach = 1.5
	}
	params := ci.svc.Parameters()
	ifaceX := params.GetFloat("interfaceX", 0.40)
	angle := params.GetFloat("angleDeg", 30) * math.Pi / 180
	shockX := params.GetFloat("shockX", 0.20)

	g := euler.Gas{Gamma: gamma}
	air := euler.Primitive{Rho: 1, P: 1, Zeta: 0}
	freon := euler.Primitive{Rho: ratio, P: 1, Zeta: 1}
	post := PostShockState(gamma, mach, air.Rho, air.P)

	d := mesh.Field(name)
	h := d.Hierarchy()
	for l := 0; l < h.NumLevels(); l++ {
		dx, dy := mesh.Spacing(l)
		// Physical domain size (level-independent).
		LX := dx * float64(h.LevelDomain(l).Hi[0]+1)
		for _, pd := range d.LocalPatches(l) {
			gb := pd.GrownBox()
			for j := gb.Lo[1]; j <= gb.Hi[1]; j++ {
				for i := gb.Lo[0]; i <= gb.Hi[0]; i++ {
					x := (float64(i) + 0.5) * dx
					y := (float64(j) + 0.5) * dy
					var w euler.Primitive
					// Interface: x = ifaceX*LX + y*tan(angle).
					xi := ifaceX*LX + y*math.Tan(angle)
					switch {
					case x < shockX*LX:
						w = post
					case x < xi:
						w = air
					default:
						w = freon
					}
					u := g.ToConserved(w)
					for k := 0; k < euler.NumComp; k++ {
						pd.Set(k, i, j, u[k])
					}
				}
			}
		}
	}
}
