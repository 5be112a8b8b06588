package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/mpi"
	"ccahydro/internal/obs"
	"ccahydro/internal/scenario"
)

// simWorkload is one scenario run: a library scenario file, the seeded
// parameter overrides, and the rank count.
type simWorkload struct {
	name      string
	scenario  string // path relative to the repository root
	ranks     int
	overrides []scenario.Param
	// durKey/durValue is the run-length knob on the run instance. The
	// set-up go call runs with the knob at 0 (initial condition and
	// first hierarchy only); the measured call restores it.
	durKey, durValue string
	// check inspects one rank's finished assembly and adds to the
	// rank-merged oracle state; it runs after the measured phase.
	check func(f *cca.Framework, rank int, clock *stepClock, o *simOracle) error
	// probe, when set, runs at every step boundary on rank 0 (outside
	// the step samples).
	probe func(clock *stepClock, o *simOracle, step int)
}

// simRep is one repetition's measurements.
type simRep struct {
	compileS, assembleS float64
	setupS, rawSetupS   float64   // adjusted to the reference speed (probe.go), and as measured
	wallS, cpuS         float64   // as measured
	steps               []float64 // per driver step, adjusted
	wallAdjS, cpuAdjS   float64   // sums of the adjusted steps' wall and CPU time
	probes              []float64
	liveHeapPeakMiB     float64 // the most seen at a step boundary
	cellUpdates         float64
	allocs              allocSnap
	counters            map[string]float64 // deterministic work counts
	layers              *layerReport       // traced reps only
	goSeconds           float64            // rank-summed go-port time
	oracle              *simOracle
}

// repMode selects how much of a repetition runs.
type repMode int

const (
	modeSetup  repMode = iota // compile, assemble, initial condition and hierarchy only
	modeRun                   // set up and run to the end
	modeTraced                // modeRun with every port wire timed
)

// runSimRep assembles the scenario on fresh frameworks, sets it up,
// runs it, and checks the result. modeTraced attaches an observability
// session to every rank's framework.
func runSimRep(root string, w *simWorkload, mode repMode) (*simRep, error) {
	traced := mode == modeTraced
	runtime.GC()
	cpu0 := cpuSeconds()
	probeBefore := probe()
	t0 := time.Now()
	src, err := os.ReadFile(filepath.Join(root, w.scenario))
	if err != nil {
		return nil, err
	}
	comp, err := scenario.Compile(w.scenario, src)
	if err != nil {
		return nil, err
	}
	rep := &simRep{compileS: time.Since(t0).Seconds(), oracle: newSimOracle()}

	repo := components.NewRepository()
	repo.Register(clockClass, func() cca.Component { return &stepClock{} })
	world := mpi.NewWorld(w.ranks, mpi.CPlantModel)
	var group *obs.Group
	if traced {
		group = obs.NewGroup(w.ranks)
	}
	mesh := ""
	for _, c := range comp.Comps {
		if c.Class == "GrACEComponent" {
			mesh = c.Instance
		}
	}

	var (
		mu            sync.Mutex
		assembleS     float64
		goS           float64
		runStart      time.Time
		runEnd        time.Time
		alloc0        allocSnap
		conns         []cca.Connection
		classOf       = map[string]string{}
		mpiStats      mpi.CommStats
		clock0        *stepClock
		counterTotals = map[string]float64{}
	)
	overrides := append(append([]scenario.Param(nil), w.overrides...),
		scenario.Param{Instance: comp.Run, Key: w.durKey, Value: "0"})
	res := cca.RunSCMDOn(world, repo, func(f *cca.Framework, comm *mpi.Comm) error {
		rank := comm.Rank()
		if traced {
			f.SetObservability(group.Rank(rank))
		}
		ta := time.Now()
		if err := comp.Build(f, overrides...); err != nil {
			return err
		}
		clock, err := wireClock(f, comp.Run, mesh)
		if err != nil {
			return err
		}
		da := time.Since(ta).Seconds()
		tg := time.Now()
		if err := f.Go(comp.Run, "go"); err != nil {
			return err
		}
		dg := time.Since(tg).Seconds()
		if err := f.SetParameter(comp.Run, w.durKey, w.durValue); err != nil {
			return err
		}
		if rank == 0 && w.probe != nil {
			clock.onStep = func(step int) { w.probe(clock, rep.oracle, step) }
		}
		comm.Barrier()
		if rank == 0 {
			rep.rawSetupS = time.Since(t0).Seconds()
			rep.setupS = adjust(rep.rawSetupS, probeBefore, probe())
			clock.probing = true
		}
		if mode == modeSetup {
			mu.Lock()
			assembleS = max(assembleS, da)
			mu.Unlock()
			return nil
		}
		if rank == 0 {
			alloc0 = readAllocs()
			runStart = time.Now()
		}
		comm.Barrier()
		clock.begin()
		tr := time.Now()
		err = f.Go(comp.Run, "go")
		dr := time.Since(tr).Seconds()
		clock.end()
		if err != nil {
			return err
		}
		comm.Barrier()
		if rank == 0 {
			runEnd = time.Now()
			rep.allocs = readAllocs().since(alloc0)
		}
		comm.Barrier()

		st := comm.Stats()
		counters := counterSnapshot(f)
		mu.Lock()
		assembleS = max(assembleS, da)
		goS += dg + dr
		mpiStats.Sends += st.Sends
		mpiStats.WordsSent += st.WordsSent
		mpiStats.CommSeconds += st.CommSeconds
		mpiStats.HiddenSeconds += st.HiddenSeconds
		for k, v := range counters {
			counterTotals[k] += v
		}
		if rank == 0 {
			clock0 = clock
			conns = f.Connections()
			for _, in := range f.Instances() {
				classOf[in], _ = f.ClassOf(in)
			}
		}
		mu.Unlock()
		return w.check(f, rank, clock, rep.oracle)
	})
	rep.cpuS = cpuSeconds() - cpu0
	if err := res.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep.assembleS = assembleS
	if mode == modeSetup {
		return rep, nil
	}
	rep.wallS = runEnd.Sub(runStart).Seconds()
	rep.goSeconds = goS
	rep.probes = clock0.probes
	rep.liveHeapPeakMiB = clock0.liveHeapMax
	for i, s := range clock0.steps {
		a := adjust(s, rep.probes[i], rep.probes[i+1])
		rep.steps = append(rep.steps, a)
		rep.wallAdjS += a
		rep.cpuAdjS += adjust(clock0.cpu[i], rep.probes[i], rep.probes[i+1])
	}
	for _, c := range clock0.cells {
		rep.cellUpdates += float64(c)
	}
	patches := 0
	h := clock0.mesh.Hierarchy()
	for l := 0; l < h.NumLevels(); l++ {
		patches += len(h.Level(l).Patches)
	}
	rep.counters = map[string]float64{
		"driver.steps":         float64(len(rep.steps)),
		"amr.cell_updates":     rep.cellUpdates,
		"amr.patches_final":    float64(patches),
		"mpi.msgs":             float64(mpiStats.Sends),
		"mpi.words":            float64(mpiStats.WordsSent),
		"mpi.comm_virtual_s":   mpiStats.CommSeconds,
		"mpi.hidden_virtual_s": mpiStats.HiddenSeconds,
	}
	for k, v := range counterTotals {
		rep.counters[k] = v
	}
	if traced {
		rep.layers = attribute(group.MergedSnapshot(), conns, classOf, comp.Run, goS)
		rep.counters["cca.port_calls"] = rep.layers.portCalls
		for _, l := range callLayers {
			rep.counters[l+".calls"] = rep.layers.calls[l]
		}
	}
	return rep, nil
}

// counterSnapshot reads the solver counters every CVODE instance of the
// assembly exposes.
func counterSnapshot(f *cca.Framework) map[string]float64 {
	out := map[string]float64{
		"cvode.steps": 0, "cvode.rhs_evals": 0, "cvode.jac_builds": 0, "cvode.newton_iters": 0,
	}
	for _, in := range f.Instances() {
		c, err := f.Lookup(in)
		if err != nil {
			continue
		}
		cv, ok := c.(*components.CvodeComponent)
		if !ok {
			continue
		}
		st := cv.TotalStats()
		out["cvode.steps"] += float64(st.Steps)
		out["cvode.rhs_evals"] += float64(st.RHSEvals)
		out["cvode.jac_builds"] += float64(st.JacEvals)
		out["cvode.newton_iters"] += float64(st.NewtonIters)
	}
	return out
}
