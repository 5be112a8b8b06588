package components

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
	"ccahydro/internal/telemetry"
)

// rdDriverName tags checkpoints written by this driver; a restore into
// a different driver is rejected.
const rdDriverName = "rd"

// RDDriver assembles the operator-split time loop of the 2D
// reaction–diffusion flame (paper Sec. 4.2): stiff chemistry integrated
// implicitly cell by cell, diffusion integrated explicitly with RKC,
// with optional SAMR regridding between steps. Parameters:
//
//	dt           macro time step in seconds (default 1e-7, the paper's
//	             scaling-run step)
//	steps        number of macro steps (default 5, as in the paper)
//	regridEvery  regrid period in steps; 0 disables adaptivity (the
//	             paper's scaling runs turn adaptivity off)
//	splitting    "lie" (chemistry then diffusion) or "strang" (half
//	             chemistry, diffusion, half chemistry); default lie
//	field        data object name (default "phi")
//	skipChem     when true the chemistry half is skipped (diffusion-only
//	             runs for scaling studies)
type RDDriver struct {
	svc cca.Services

	// Results, readable after Go.
	StepSeconds  []float64
	CellsPerStep []int
	TMax, TMin   float64
}

// SetServices implements cca.Component.
func (dr *RDDriver) SetServices(svc cca.Services) error {
	dr.svc = svc
	for _, u := range [][2]string{
		{"mesh", MeshPortType},
		{"ic", ICFieldPortType},
		{"explicit", ExplicitIntegratorType},
		{"cellChemistry", CellChemistryPortType},
		{"regrid", RegridPortType},
		{"stats", StatsPortType},
		{"chemistry", ChemistryPortType},
		{"checkpoint", CheckpointPortType},
	} {
		if err := svc.RegisterUsesPort(u[0], u[1]); err != nil {
			return err
		}
	}
	if err := registerExecPort(svc); err != nil {
		return err
	}
	return svc.AddProvidesPort(cca.GoPort(goFunc(dr.run)), "go", cca.GoPortType)
}

func (dr *RDDriver) port(name string) cca.Port {
	p, err := dr.svc.GetPort(name)
	if err != nil {
		panic(fmt.Sprintf("RDDriver: %v", err))
	}
	dr.svc.ReleasePort(name)
	return p
}

// optionalPort returns nil when the uses port is unconnected (regrid
// and stats are optional in reduced assemblies).
func (dr *RDDriver) optionalPort(name string) cca.Port {
	p, err := dr.svc.GetPort(name)
	if err != nil {
		return nil
	}
	dr.svc.ReleasePort(name)
	return p
}

// multiLevelChem resolves the optional multi-level extension of a
// cellChemistry wire, mirroring regionRHS: proxies answer
// SupportsMultiLevel truthfully for the component behind them.
func multiLevelChem(c CellChemistryPort) MultiLevelChemistryPort {
	ml, ok := c.(MultiLevelChemistryPort)
	if !ok {
		return nil
	}
	if p, ok := c.(interface{ SupportsMultiLevel() bool }); ok && !p.SupportsMultiLevel() {
		return nil
	}
	return ml
}

func (dr *RDDriver) run() error {
	params := dr.svc.Parameters()
	dt := params.GetFloat("dt", 1e-7)
	steps := params.GetInt("steps", 5)
	regridEvery := params.GetInt("regridEvery", 0)
	splitting := params.GetString("splitting", "lie")
	name := params.GetString("field", "phi")
	skipChem := params.GetBool("skipChem", false)

	mesh := dr.port("mesh").(MeshPort)
	icPort := dr.port("ic").(ICFieldPort)
	expl := dr.port("explicit").(ExplicitIntegratorPort)
	chemPort := dr.port("chemistry").(ChemistryPort)
	var cellChem CellChemistryPort
	if p := dr.optionalPort("cellChemistry"); p != nil {
		cellChem = p.(CellChemistryPort)
	}
	var regrid RegridPort
	if p := dr.optionalPort("regrid"); p != nil {
		regrid = p.(RegridPort)
	}
	var stats StatsPort
	if p := dr.optionalPort("stats"); p != nil {
		stats = p.(StatsPort)
	}
	var ck CheckpointPort
	if p := dr.optionalPort("checkpoint"); p != nil {
		ck = p.(CheckpointPort)
	}

	// Restore (if configured) before the fresh check: a restore adopts
	// the checkpointed hierarchy and fields into the mesh, so the IC and
	// initial regrid passes below are skipped and the loop resumes at the
	// checkpointed step.
	var restored *ckpt.Meta
	if ck != nil {
		m, err := ck.Restore(rdDriverName)
		if err != nil {
			return err
		}
		restored = m
	}

	nsp := chemPort.Mechanism().NumSpecies()
	fresh := mesh.Field(name) == nil
	mesh.Declare(name, 1+nsp, 2)
	if fresh {
		// First Go on this framework: impose the IC and establish the
		// initial hierarchy (alternate flagging and re-imposing so fine
		// levels start from exact data). Subsequent Go calls continue
		// the run from the current field, so a driver can be fired
		// repeatedly to produce time-series frames (Fig 3).
		icPort.Impose(mesh, name)
		if regrid != nil && regridEvery > 0 {
			for pass := 0; pass < mesh.Hierarchy().MaxLevels-1; pass++ {
				if !regrid.EstimateAndRegrid(mesh, name) {
					break
				}
				icPort.Impose(mesh, name)
			}
		}
	}

	chemStep := func(frac float64) error {
		if skipChem || cellChem == nil {
			return nil
		}
		// One flattened epoch over all levels' cells when the wire
		// supports it (bit-for-bit the per-level sequence: each cell's
		// integration is independent and dt is level-uniform); the
		// per-level loop is the fallback for foreign providers.
		if ml := multiLevelChem(cellChem); ml != nil {
			_, err := ml.AdvanceChemistryLevels(mesh, name, dt*frac)
			return err
		}
		h := mesh.Hierarchy()
		for l := 0; l < h.NumLevels(); l++ {
			if _, err := cellChem.AdvanceChemistry(mesh, name, l, dt*frac); err != nil {
				return err
			}
		}
		return nil
	}
	diffStep := func(t0, t1 float64) error {
		h := mesh.Hierarchy()
		for l := 0; l < h.NumLevels(); l++ {
			if err := expl.AdvanceLevel(mesh, name, l, t0, t1); err != nil {
				return err
			}
		}
		// Make coarse data consistent with fine (restriction).
		d := mesh.Field(name)
		for l := h.NumLevels() - 1; l >= 1; l-- {
			d.RestrictLevel(l)
		}
		return nil
	}

	obsSession := dr.svc.Observability()
	tel := dr.svc.Telemetry()
	t := 0.0
	step0 := 0
	if restored != nil {
		t = restored.Time
		step0 = restored.Step + 1
		if cs, ok := cellChem.(CounterSource); ok && restored.Counters != nil {
			cs.RestoreCounters(restored.Counters)
		}
		// Reinstate the per-step history (it rides in Meta.Series), and
		// replay it into the statistics port so a resumed run's series —
		// including the live /series stream — covers the whole job, not
		// just the steps after the restore point.
		dr.StepSeconds = append([]float64(nil), restored.Series["stepSeconds"]...)
		dr.CellsPerStep = dr.CellsPerStep[:0]
		for _, v := range restored.Series["cells"] {
			dr.CellsPerStep = append(dr.CellsPerStep, int(v))
		}
		if stats != nil {
			for i := range dr.StepSeconds {
				stats.Record("stepSeconds", dr.StepSeconds[i])
				if i < len(dr.CellsPerStep) {
					stats.Record("cells", float64(dr.CellsPerStep[i]))
				}
			}
		}
	}
	for step := step0; step < steps; step++ {
		if c := dr.svc.Comm(); c != nil {
			c.NoteStep(step)
		}
		tel.NoteStep(step)
		var stepSpan func()
		if obsSession != nil {
			stepSpan = obsSession.Span("driver", "rd.step "+strconv.Itoa(step))
		}
		start := time.Now()
		switch splitting {
		case "strang":
			if err := chemStep(0.5); err != nil {
				return err
			}
			if err := diffStep(t, t+dt); err != nil {
				return err
			}
			if err := chemStep(0.5); err != nil {
				return err
			}
		default: // lie
			if err := chemStep(1.0); err != nil {
				return err
			}
			if err := diffStep(t, t+dt); err != nil {
				return err
			}
		}
		t += dt
		elapsed := time.Since(start).Seconds()
		dr.StepSeconds = append(dr.StepSeconds, elapsed)
		dr.CellsPerStep = append(dr.CellsPerStep, mesh.Hierarchy().TotalCells())
		if stats != nil {
			stats.Record("stepSeconds", elapsed)
			stats.Record("cells", float64(mesh.Hierarchy().TotalCells()))
		}
		if regrid != nil && regridEvery > 0 && (step+1)%regridEvery == 0 {
			if regrid.EstimateAndRegrid(mesh, name) {
				tel.Emit(telemetry.EvRegrid, step, "")
			}
		}
		// Checkpoint last, after the regrid: a continuation computes step
		// step+1 from exactly the state this iteration hands it. The
		// per-step series ride along so a restore reinstates them.
		if ck != nil {
			cells := make([]float64, len(dr.CellsPerStep))
			for i, c := range dr.CellsPerStep {
				cells[i] = float64(c)
			}
			meta := ckpt.Meta{Driver: rdDriverName, Step: step, Time: t,
				Series: map[string][]float64{"stepSeconds": dr.StepSeconds, "cells": cells}}
			if cs, ok := cellChem.(CounterSource); ok {
				meta.Counters = cs.Counters()
			}
			if err := ck.SaveIfDue(meta); err != nil {
				return err
			}
		}
		if stepSpan != nil {
			stepSpan()
		}
	}
	if ck != nil {
		if err := ck.Flush(); err != nil {
			return err
		}
	}

	// Final temperature extrema (rank-local; experiments reduce them).
	d := mesh.Field(name)
	h := mesh.Hierarchy()
	var scan []*field.PatchData
	for l := 0; l < h.NumLevels(); l++ {
		scan = append(scan, d.LocalPatches(l)...)
	}
	dr.TMax, dr.TMin = interiorExtrema(optionalPool(dr.svc), scan, 0)
	if stats != nil {
		stats.Record("Tmax", dr.TMax)
		stats.Record("Tmin", dr.TMin)
	}
	return nil
}

// interiorExtrema returns the max and min of component comp over the
// interiors of patches (-1e300 and 1e300 when there are none). Patch
// scans fan out over the pool; min/max folds are order-independent, so
// the result matches the serial scan exactly. A NaN anywhere makes both
// extrema NaN.
func interiorExtrema(pool *exec.Pool, patches []*field.PatchData, comp int) (hi, lo float64) {
	his := make([]float64, len(patches))
	los := make([]float64, len(patches))
	pool.ForEach(len(patches), func(_, n int) {
		pd := patches[n]
		b := pd.Interior()
		ph, pl := -1e300, 1e300
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				v := pd.At(comp, i, j)
				if v > ph || math.IsNaN(v) {
					ph = v
				}
				if v < pl || math.IsNaN(v) {
					pl = v
				}
			}
		}
		his[n], los[n] = ph, pl
	})
	hi, lo = -1e300, 1e300
	for n := range patches {
		if his[n] > hi || math.IsNaN(his[n]) {
			hi = his[n]
		}
		if los[n] < lo || math.IsNaN(los[n]) {
			lo = los[n]
		}
	}
	return hi, lo
}
