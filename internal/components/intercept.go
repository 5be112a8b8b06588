package components

import (
	"strconv"
	"time"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/chem"
	"ccahydro/internal/cvode"
	"ccahydro/internal/euler"
	"ccahydro/internal/field"
	"ccahydro/internal/obs"
)

// Port-call interceptor proxies. When a framework has observability
// attached, cca.GetPort wraps each fetched wire in one of the proxies
// below; every call crossing the wire then lands in a
// port_call_seconds{instance,port,method} latency histogram — the
// running system's own Table 4 (component invocation cost), measured
// per wire instead of in a dedicated micro-benchmark.
//
// Proxies are hand-written because Go cannot implement an arbitrary
// interface at runtime. Each must preserve every capability callers
// probe for:
//
//   - the PatchRHS proxy forwards the optional RegionRHSPort extension
//     and answers SupportsRegion truthfully, so the drivers'
//     exchange/compute overlap engages exactly as without the proxy;
//   - the implicit-integrator proxy comes in two variants so a
//     WorkerIntegratorPort assertion on the wire stays truthful, and
//     per-worker integrators are wrapped into the same histogram
//     (their calls run on pool goroutines; histograms are atomic);
//   - MeshPort is deliberately NOT wrapped: drivers downcast it to the
//     concrete *GrACEComponent for framework-internal fast paths, and
//     a proxy would break that (and the identity of the mesh object).
//
// Registration happens in init, from this package, because the port
// interfaces live here — the CCA "user community" owns both the types
// and their instrumentation.

// obsNow/obsSince isolate the two wall-clock touches of every proxy
// method. Recording goes through obs.PortCall, which applies the
// session's sampling rate / latency floor (see Obs.SetPortCallSampling)
// and counts what it drops.
func obsSince(h *obs.PortCall, t0 time.Time) { h.ObserveSince(t0) }

// obsLevelName labels a per-level span; callers only build it when a
// session is attached.
func obsLevelName(op string, level int) string {
	return op + " L" + strconv.Itoa(level)
}

// iRHS instruments ode.RHSPort.
type iRHS struct {
	inner RHSPort
	dim   *obs.PortCall
	eval  *obs.PortCall
	jacf  *obs.PortCall
}

func (p *iRHS) Dim() int {
	t0 := time.Now()
	defer obsSince(p.dim, t0)
	return p.inner.Dim()
}

func (p *iRHS) Eval(t float64, y, ydot []float64) {
	t0 := time.Now()
	p.inner.Eval(t, y, ydot)
	obsSince(p.eval, t0)
}

// JacFn forwards the optional JacobianRHSPort capability truthfully: a
// nil evaluator when the wrapped RHS has none, otherwise the inner
// evaluator wrapped so analytic Jacobian builds land in the histogram
// alongside Eval.
func (p *iRHS) JacFn() cvode.Jac {
	jp, ok := p.inner.(JacobianRHSPort)
	if !ok {
		return nil
	}
	fn := jp.JacFn()
	if fn == nil {
		return nil
	}
	hh := p.jacf
	return func(t float64, y, jac []float64) {
		t0 := time.Now()
		fn(t, y, jac)
		obsSince(hh, t0)
	}
}

// iPatchRHS instruments samr.PatchRHSPort; iRegionRHS adds the
// RegionRHSPort extension when the wrapped component provides it.
type iPatchRHS struct {
	inner PatchRHSPort
	eval  *obs.PortCall
}

func (p *iPatchRHS) EvalPatch(pd, out *field.PatchData, dx, dy float64) {
	t0 := time.Now()
	p.inner.EvalPatch(pd, out, dx, dy)
	obsSince(p.eval, t0)
}

// SupportsRegion reports the wrapped component's actual capability, so
// the overlap probe never engages region evaluation through a proxy
// whose inner port lacks it.
func (p *iPatchRHS) SupportsRegion() bool {
	rr := p.inner
	if s, ok := rr.(interface{ SupportsRegion() bool }); ok {
		return s.SupportsRegion()
	}
	_, ok := rr.(RegionRHSPort)
	return ok
}

type iRegionRHS struct {
	iPatchRHS
	region *obs.PortCall
}

func (p *iRegionRHS) EvalRegion(pd, out *field.PatchData, region amr.Box, dx, dy float64) {
	t0 := time.Now()
	p.inner.(RegionRHSPort).EvalRegion(pd, out, region, dx, dy)
	obsSince(p.region, t0)
}

// iImplicit instruments ode.ImplicitIntegratorPort; iWorkerImplicit
// additionally forwards WorkerIntegratorPort, wrapping each per-worker
// integrator so fan-out cell integrations record into the same
// histogram.
type iImplicit struct {
	inner ImplicitIntegratorPort
	integ *obs.PortCall
}

func (p *iImplicit) IntegrateTo(t0f, t1f float64, y []float64) (cvode.Stats, error) {
	t0 := time.Now()
	st, err := p.inner.IntegrateTo(t0f, t1f, y)
	obsSince(p.integ, t0)
	return st, err
}

// Counters/RestoreCounters forward the optional CounterSource
// capability (checkpointed solver statistics) through the proxy, the
// same way SupportsRegion stays truthful on iPatchRHS. A nil map from
// Counters means the wrapped component has no counters to save.
func (p *iImplicit) Counters() map[string]float64 {
	if cs, ok := p.inner.(CounterSource); ok {
		return cs.Counters()
	}
	return nil
}

func (p *iImplicit) RestoreCounters(m map[string]float64) {
	if cs, ok := p.inner.(CounterSource); ok {
		cs.RestoreCounters(m)
	}
}

type iWorkerImplicit struct {
	iImplicit
	wip WorkerIntegratorPort
}

func (p *iWorkerImplicit) WorkerIntegrator(w, width int) ImplicitIntegratorPort {
	return &iImplicit{inner: p.wip.WorkerIntegrator(w, width), integ: p.integ}
}

// iChemistry instruments chem.SourceTermPort.
type iChemistry struct {
	inner    ChemistryPort
	cp, cv   *obs.PortCall
	mechHist *obs.PortCall
}

func (p *iChemistry) Mechanism() *chem.Mechanism {
	t0 := time.Now()
	defer obsSince(p.mechHist, t0)
	return p.inner.Mechanism()
}

// Kernel forwards the provider's kernel untimed: it is a capability
// getter adaptors call once at closure-build time, not a hot path.
func (p *iChemistry) Kernel() chem.Kernel { return p.inner.Kernel() }

func (p *iChemistry) ConstPressure(T, P float64, Y, dY []float64) float64 {
	t0 := time.Now()
	v := p.inner.ConstPressure(T, P, Y, dY)
	obsSince(p.cp, t0)
	return v
}

func (p *iChemistry) ConstVolume(T, rho float64, Y, dY []float64) float64 {
	t0 := time.Now()
	v := p.inner.ConstVolume(T, rho, Y, dY)
	obsSince(p.cv, t0)
	return v
}

// iDPDt instruments chem.DPDtPort.
type iDPDt struct {
	inner DPDtPort
	h     *obs.PortCall
}

func (p *iDPDt) DPDt(rho, T, dTdt float64, Y, dYdt []float64) float64 {
	t0 := time.Now()
	v := p.inner.DPDt(rho, T, dTdt, Y, dYdt)
	obsSince(p.h, t0)
	return v
}

// iTransport instruments transport.PropertiesPort.
type iTransport struct {
	inner      TransportPort
	props, max *obs.PortCall
}

func (p *iTransport) Properties(T, P float64, Y, X, D []float64) (float64, float64) {
	t0 := time.Now()
	l, r := p.inner.Properties(T, P, Y, X, D)
	obsSince(p.props, t0)
	return l, r
}

func (p *iTransport) MaxDiffusivity(T, P float64, Y []float64) float64 {
	t0 := time.Now()
	v := p.inner.MaxDiffusivity(T, P, Y)
	obsSince(p.max, t0)
	return v
}

// iSpectral instruments ode.SpectralRadiusPort.
type iSpectral struct {
	inner SpectralRadiusPort
	h     *obs.PortCall
}

func (p *iSpectral) MaxEigen(mesh MeshPort, name string) float64 {
	t0 := time.Now()
	v := p.inner.MaxEigen(mesh, name)
	obsSince(p.h, t0)
	return v
}

// iExplicit instruments samr.ExplicitIntegratorPort.
type iExplicit struct {
	inner ExplicitIntegratorPort
	h     *obs.PortCall
}

func (p *iExplicit) AdvanceLevel(mesh MeshPort, name string, level int, t0f, t1f float64) error {
	t0 := time.Now()
	err := p.inner.AdvanceLevel(mesh, name, level, t0f, t1f)
	obsSince(p.h, t0)
	return err
}

// iCellChem instruments samr.CellChemistryPort.
type iCellChem struct {
	inner CellChemistryPort
	h     *obs.PortCall
}

func (p *iCellChem) AdvanceChemistry(mesh MeshPort, name string, level int, dt float64) (int, error) {
	t0 := time.Now()
	n, err := p.inner.AdvanceChemistry(mesh, name, level, dt)
	obsSince(p.h, t0)
	return n, err
}

// AdvanceChemistryLevels delegates the multi-level epoch to the wrapped
// component; the drivers consult SupportsMultiLevel before calling, so
// this is only reached when the inner port really implements it.
func (p *iCellChem) AdvanceChemistryLevels(mesh MeshPort, name string, dt float64) (int, error) {
	ml, ok := p.inner.(MultiLevelChemistryPort)
	if !ok {
		panic("components: AdvanceChemistryLevels on a wire without multi-level support")
	}
	t0 := time.Now()
	n, err := ml.AdvanceChemistryLevels(mesh, name, dt)
	obsSince(p.h, t0)
	return n, err
}

// SupportsMultiLevel reports the wrapped component's actual capability,
// the same way SupportsRegion stays truthful on iPatchRHS.
func (p *iCellChem) SupportsMultiLevel() bool {
	inner := CellChemistryPort(p.inner)
	if s, ok := inner.(interface{ SupportsMultiLevel() bool }); ok {
		return s.SupportsMultiLevel()
	}
	_, ok := inner.(MultiLevelChemistryPort)
	return ok
}

// Counters/RestoreCounters forward CounterSource across the
// cellChemistry wire (the ImplicitIntegrator adaptor delegates them to
// its wired integrator).
func (p *iCellChem) Counters() map[string]float64 {
	if cs, ok := p.inner.(CounterSource); ok {
		return cs.Counters()
	}
	return nil
}

func (p *iCellChem) RestoreCounters(m map[string]float64) {
	if cs, ok := p.inner.(CounterSource); ok {
		cs.RestoreCounters(m)
	}
}

// iFlux instruments hydro.FluxPort.
type iFlux struct {
	inner FluxPort
	h     *obs.PortCall
}

func (p *iFlux) Line(g euler.Gas, l, r []euler.Primitive, f []euler.Conserved) {
	t0 := time.Now()
	p.inner.Line(g, l, r, f)
	obsSince(p.h, t0)
}

// iStates instruments hydro.StatesPort.
type iStates struct {
	inner StatesPort
	h     *obs.PortCall
}

func (p *iStates) Line(g euler.Gas, pd *field.PatchData, i, j, dir int, w, l, r []euler.Primitive) {
	t0 := time.Now()
	p.inner.Line(g, pd, i, j, dir, w, l, r)
	obsSince(p.h, t0)
}

// iCharacteristics instruments hydro.CharacteristicsPort.
type iCharacteristics struct {
	inner CharacteristicsPort
	h     *obs.PortCall
}

func (p *iCharacteristics) StableDt(mesh MeshPort, name string, level int) float64 {
	t0 := time.Now()
	v := p.inner.StableDt(mesh, name, level)
	obsSince(p.h, t0)
	return v
}

// iRegrid instruments samr.RegridPort.
type iRegrid struct {
	inner RegridPort
	h     *obs.PortCall
}

func (p *iRegrid) EstimateAndRegrid(mesh MeshPort, name string) bool {
	t0 := time.Now()
	v := p.inner.EstimateAndRegrid(mesh, name)
	obsSince(p.h, t0)
	return v
}

// iStats instruments util.StatisticsPort.
type iStats struct {
	inner          StatsPort
	rec, get, keys *obs.PortCall
}

func (p *iStats) Record(key string, value float64) {
	t0 := time.Now()
	p.inner.Record(key, value)
	obsSince(p.rec, t0)
}

func (p *iStats) Get(key string) []float64 {
	t0 := time.Now()
	defer obsSince(p.get, t0)
	return p.inner.Get(key)
}

func (p *iStats) Keys() []string {
	t0 := time.Now()
	defer obsSince(p.keys, t0)
	return p.inner.Keys()
}

// iBC instruments samr.BoundaryConditionPort.
type iBC struct {
	inner BCPort
	h     *obs.PortCall
}

func (p *iBC) Apply(name string, level int) {
	t0 := time.Now()
	p.inner.Apply(name, level)
	obsSince(p.h, t0)
}

// iICField instruments samr.InitialConditionPort.
type iICField struct {
	inner ICFieldPort
	h     *obs.PortCall
}

func (p *iICField) Impose(mesh MeshPort, name string) {
	t0 := time.Now()
	p.inner.Impose(mesh, name)
	obsSince(p.h, t0)
}

// iICState instruments chem.InitialStatePort.
type iICState struct {
	inner ICStatePort
	h     *obs.PortCall
}

func (p *iICState) InitialState() (float64, float64, []float64) {
	t0 := time.Now()
	defer obsSince(p.h, t0)
	return p.inner.InitialState()
}

// iKeyValue instruments db.KeyValuePort.
type iKeyValue struct {
	inner    StatsKV
	set, get *obs.PortCall
}

// StatsKV aliases KeyValuePort for the proxy's field type.
type StatsKV = KeyValuePort

func (p *iKeyValue) SetValue(key string, v float64) {
	t0 := time.Now()
	p.inner.SetValue(key, v)
	obsSince(p.set, t0)
}

func (p *iKeyValue) Value(key string) (float64, bool) {
	t0 := time.Now()
	defer obsSince(p.get, t0)
	return p.inner.Value(key)
}

// iProlongRestrict instruments samr.ProlongRestrictPort.
type iProlongRestrict struct {
	inner        ProlongRestrictPort
	pro, res, cf *obs.PortCall
}

func (p *iProlongRestrict) Prolong(mesh MeshPort, name string, level int) {
	t0 := time.Now()
	p.inner.Prolong(mesh, name, level)
	obsSince(p.pro, t0)
}

func (p *iProlongRestrict) Restrict(mesh MeshPort, name string, level int) {
	t0 := time.Now()
	p.inner.Restrict(mesh, name, level)
	obsSince(p.res, t0)
}

func (p *iProlongRestrict) FillCoarseFine(mesh MeshPort, name string, level int) {
	t0 := time.Now()
	p.inner.FillCoarseFine(mesh, name, level)
	obsSince(p.cf, t0)
}

// iData instruments samr.DataObjectPort.
type iData struct {
	inner              DataPort
	exch, cfg, res, pr *obs.PortCall
}

func (p *iData) ExchangeGhosts(name string, level int) {
	t0 := time.Now()
	p.inner.ExchangeGhosts(name, level)
	obsSince(p.exch, t0)
}

func (p *iData) FillCoarseFineGhosts(name string, level int) {
	t0 := time.Now()
	p.inner.FillCoarseFineGhosts(name, level)
	obsSince(p.cfg, t0)
}

func (p *iData) Restrict(name string, level int) {
	t0 := time.Now()
	p.inner.Restrict(name, level)
	obsSince(p.res, t0)
}

func (p *iData) ProlongNewLevel(name string, level int) {
	t0 := time.Now()
	p.inner.ProlongNewLevel(name, level)
	obsSince(p.pr, t0)
}

func init() {
	h := func(o *obs.Obs, inst, port, method string) *obs.PortCall {
		return o.PortCall(inst, port, method)
	}
	reg := cca.RegisterPortWrapper

	reg(RHSPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(RHSPort)
		if !ok {
			return nil
		}
		return &iRHS{inner: r, dim: h(o, inst, port, "Dim"), eval: h(o, inst, port, "Eval"),
			jacf: h(o, inst, port, "Jac")}
	})
	reg(PatchRHSPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(PatchRHSPort)
		if !ok {
			return nil
		}
		base := iPatchRHS{inner: r, eval: h(o, inst, port, "EvalPatch")}
		if _, ok := r.(RegionRHSPort); ok {
			return &iRegionRHS{iPatchRHS: base, region: h(o, inst, port, "EvalRegion")}
		}
		return &base
	})
	reg(ImplicitIntegratorType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(ImplicitIntegratorPort)
		if !ok {
			return nil
		}
		base := iImplicit{inner: r, integ: h(o, inst, port, "IntegrateTo")}
		if wip, ok := r.(WorkerIntegratorPort); ok {
			return &iWorkerImplicit{iImplicit: base, wip: wip}
		}
		return &base
	})
	reg(ChemistryPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(ChemistryPort)
		if !ok {
			return nil
		}
		return &iChemistry{inner: r,
			cp: h(o, inst, port, "ConstPressure"), cv: h(o, inst, port, "ConstVolume"),
			mechHist: h(o, inst, port, "Mechanism")}
	})
	reg(DPDtPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(DPDtPort)
		if !ok {
			return nil
		}
		return &iDPDt{inner: r, h: h(o, inst, port, "DPDt")}
	})
	reg(TransportPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(TransportPort)
		if !ok {
			return nil
		}
		return &iTransport{inner: r,
			props: h(o, inst, port, "Properties"), max: h(o, inst, port, "MaxDiffusivity")}
	})
	reg(SpectralRadiusPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(SpectralRadiusPort)
		if !ok {
			return nil
		}
		return &iSpectral{inner: r, h: h(o, inst, port, "MaxEigen")}
	})
	reg(ExplicitIntegratorType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(ExplicitIntegratorPort)
		if !ok {
			return nil
		}
		return &iExplicit{inner: r, h: h(o, inst, port, "AdvanceLevel")}
	})
	reg(CellChemistryPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(CellChemistryPort)
		if !ok {
			return nil
		}
		return &iCellChem{inner: r, h: h(o, inst, port, "AdvanceChemistry")}
	})
	reg(FluxPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(FluxPort)
		if !ok {
			return nil
		}
		return &iFlux{inner: r, h: h(o, inst, port, "Line")}
	})
	reg(StatesPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(StatesPort)
		if !ok {
			return nil
		}
		return &iStates{inner: r, h: h(o, inst, port, "Line")}
	})
	reg(CharacteristicsPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(CharacteristicsPort)
		if !ok {
			return nil
		}
		return &iCharacteristics{inner: r, h: h(o, inst, port, "StableDt")}
	})
	reg(RegridPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(RegridPort)
		if !ok {
			return nil
		}
		return &iRegrid{inner: r, h: h(o, inst, port, "EstimateAndRegrid")}
	})
	reg(StatsPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(StatsPort)
		if !ok {
			return nil
		}
		return &iStats{inner: r,
			rec: h(o, inst, port, "Record"), get: h(o, inst, port, "Get"), keys: h(o, inst, port, "Keys")}
	})
	reg(BCPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(BCPort)
		if !ok {
			return nil
		}
		return &iBC{inner: r, h: h(o, inst, port, "Apply")}
	})
	reg(ICFieldPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(ICFieldPort)
		if !ok {
			return nil
		}
		return &iICField{inner: r, h: h(o, inst, port, "Impose")}
	})
	reg(ICStatePortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(ICStatePort)
		if !ok {
			return nil
		}
		return &iICState{inner: r, h: h(o, inst, port, "InitialState")}
	})
	reg(KeyValuePortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(KeyValuePort)
		if !ok {
			return nil
		}
		return &iKeyValue{inner: r, set: h(o, inst, port, "SetValue"), get: h(o, inst, port, "Value")}
	})
	reg(ProlongRestrictPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(ProlongRestrictPort)
		if !ok {
			return nil
		}
		return &iProlongRestrict{inner: r,
			pro: h(o, inst, port, "Prolong"), res: h(o, inst, port, "Restrict"),
			cf: h(o, inst, port, "FillCoarseFine")}
	})
	reg(DataPortType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		r, ok := inner.(DataPort)
		if !ok {
			return nil
		}
		return &iData{inner: r,
			exch: h(o, inst, port, "ExchangeGhosts"), cfg: h(o, inst, port, "FillCoarseFineGhosts"),
			res: h(o, inst, port, "Restrict"), pr: h(o, inst, port, "ProlongNewLevel")}
	})
	// Deliberately unwrapped: MeshPort (concrete downcasts),
	// ExecutionPort (identity of the pool matters), TimingPort (it is
	// itself instrumentation).
}
