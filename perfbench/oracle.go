package main

import (
	"fmt"
	"math"
	"sync"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/euler"
	"ccahydro/internal/field"
)

// simOracle gathers the observables a finished simulation is judged
// by, merged over ranks.
type simOracle struct {
	mu        sync.Mutex
	cells     int
	nonFinite int
	// flame
	tMin, tMax float64
	yMin       float64
	sumYDev    float64   // max |ΣY−1|
	tmaxTraj   []float64 // Tmax at every probe step
	// shock
	rhoMin, pMin float64
	circ         []float64 // interfacial circulation after every step
	times        []float64
	// Level-0 integrals of the final state. The driver restricts every
	// fine level onto level 0 after each step, so level 0 holds the
	// composite average: total mass, total |y-momentum| (the vortical
	// motion the instability deposits), and the heavy-gas centroid.
	mass, vyAbs, zetaM, zetaMX float64
}

func newSimOracle() *simOracle {
	return &simOracle{tMin: math.Inf(1), tMax: math.Inf(-1), yMin: math.Inf(1),
		rhoMin: math.Inf(1), pMin: math.Inf(1)}
}

// forCells visits every interior cell of every local patch of a field.
func forCells(d *field.DataObject, fn func(pd *field.PatchData, i, j int)) {
	h := d.Hierarchy()
	for l := 0; l < h.NumLevels(); l++ {
		for _, pd := range d.LocalPatches(l) {
			b := pd.Interior()
			for j := b.Lo[1]; j <= b.Hi[1]; j++ {
				for i := b.Lo[0]; i <= b.Hi[0]; i++ {
					fn(pd, i, j)
				}
			}
		}
	}
}

// checkFlame scans temperature (component 0) and the mass fractions
// (components 1..n) of the flame field.
func checkFlame(name string) func(f *cca.Framework, rank int, clock *stepClock, o *simOracle) error {
	return func(f *cca.Framework, rank int, clock *stepClock, o *simOracle) error {
		d := clock.mesh.Field(name)
		if d == nil {
			return fmt.Errorf("flame: no field %q", name)
		}
		scanFlame(d, o)
		return nil
	}
}

// scanFlame folds one rank's flame field into o.
func scanFlame(d *field.DataObject, o *simOracle) {
	cells, bad := 0, 0
	tMin, tMax, yMin, dev := math.Inf(1), math.Inf(-1), math.Inf(1), 0.0
	forCells(d, func(pd *field.PatchData, i, j int) {
		cells++
		T := pd.At(0, i, j)
		sum := 0.0
		finite := !math.IsNaN(T) && !math.IsInf(T, 0)
		for k := 1; k < d.NComp; k++ {
			y := pd.At(k, i, j)
			if math.IsNaN(y) || math.IsInf(y, 0) {
				finite = false
			}
			sum += y
			yMin = math.Min(yMin, y)
		}
		if !finite {
			bad++
			return
		}
		tMin = math.Min(tMin, T)
		tMax = math.Max(tMax, T)
		dev = math.Max(dev, math.Abs(sum-1))
	})
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cells += cells
	o.nonFinite += bad
	o.tMin = math.Min(o.tMin, tMin)
	o.tMax = math.Max(o.tMax, tMax)
	o.yMin = math.Min(o.yMin, yMin)
	o.sumYDev = math.Max(o.sumYDev, dev)
}

// probeFlameTmax records the field's maximum temperature every `every`
// steps (rank 0 holds every patch of a one-rank run).
func probeFlameTmax(name string, every int) func(clock *stepClock, o *simOracle, step int) {
	return func(clock *stepClock, o *simOracle, step int) {
		if (step+1)%every != 0 {
			return
		}
		tMax := math.Inf(-1)
		forCells(clock.mesh.Field(name), func(pd *field.PatchData, i, j int) {
			tMax = math.Max(tMax, pd.At(0, i, j))
		})
		o.mu.Lock()
		o.tmaxTraj = append(o.tmaxTraj, tMax)
		o.mu.Unlock()
	}
}

// checkShock scans density and pressure of the conserved Euler field
// and, on rank 0, takes the driver's composite circulation series.
func checkShock(name, driver string, gamma float64) func(f *cca.Framework, rank int, clock *stepClock, o *simOracle) error {
	return func(f *cca.Framework, rank int, clock *stepClock, o *simOracle) error {
		d := clock.mesh.Field(name)
		if d == nil {
			return fmt.Errorf("shock: no field %q", name)
		}
		dx, dy := clock.mesh.Spacing(0)
		scanShock(d, dx, dy, gamma, o)
		if rank == 0 {
			c, err := f.Lookup(driver)
			if err != nil {
				return err
			}
			sd := c.(*components.ShockDriver)
			o.mu.Lock()
			o.circ = append([]float64(nil), sd.Circulations...)
			o.times = append([]float64(nil), sd.Times...)
			o.mu.Unlock()
		}
		return nil
	}
}

// scanShock folds one rank's conserved Euler field into o; dx and dy
// are the level-0 spacings.
func scanShock(d *field.DataObject, dx, dy, gamma float64, o *simOracle) {
	cells, bad := 0, 0
	rhoMin, pMin := math.Inf(1), math.Inf(1)
	forCells(d, func(pd *field.PatchData, i, j int) {
		cells++
		rho := pd.At(euler.IRho, i, j)
		mx, my := pd.At(euler.IMx, i, j), pd.At(euler.IMy, i, j)
		e := pd.At(euler.IE, i, j)
		p := (gamma - 1) * (e - 0.5*(mx*mx+my*my)/rho)
		if math.IsNaN(p) || math.IsInf(p, 0) || math.IsNaN(rho) || math.IsInf(rho, 0) {
			bad++
			return
		}
		rhoMin = math.Min(rhoMin, rho)
		pMin = math.Min(pMin, p)
	})
	var mass, vy, zm, zmx float64
	for _, pd := range d.LocalPatches(0) {
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				x := (float64(i) + 0.5) * dx
				mass += pd.At(euler.IRho, i, j) * dx * dy
				vy += math.Abs(pd.At(euler.IMy, i, j)) * dx * dy
				z := pd.At(euler.IZeta, i, j) * dx * dy
				zm += z
				zmx += z * x
			}
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.mass += mass
	o.vyAbs += vy
	o.zetaM += zm
	o.zetaMX += zmx
	o.cells += cells
	o.nonFinite += bad
	o.rhoMin = math.Min(o.rhoMin, rhoMin)
	o.pMin = math.Min(o.pMin, pMin)
}
