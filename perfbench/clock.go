package main

import (
	"time"

	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
)

// stepClock is the benchmark's probe component. It provides the
// checkpoint port that both simulation drivers call once per step,
// after the step's regrid, so connecting driver.checkpoint to it
// timestamps every step boundary without touching the driver. It saves
// nothing: Restore reports a cold start and SaveIfDue only records.
//
// A step sample runs from the return of the previous SaveIfDue to the
// entry of the next, so the probe's own work (the onStep hook) is
// excluded from the samples. Each sample has a wall time and the
// process CPU time spent over the same interval. A probing clock also
// runs the host-speed probe at every boundary, outside the samples, so
// step i lies between probes i and i+1, and samples the heap there.
type stepClock struct {
	mesh *components.GrACEComponent

	probing     bool
	start       time.Time
	cpu0        float64
	steps       []float64 // seconds per driver step
	cpu         []float64 // process CPU seconds per driver step
	probes      []float64 // probe seconds at each step boundary
	liveHeapMax float64   // MiB of live heap, the most seen at a boundary
	cells       []int     // hierarchy cells the step advanced
	onStep      func(step int)
}

const (
	clockClass    = "perfbench.StepClock"
	clockInstance = "perfbenchClock"
)

func (c *stepClock) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(components.CheckpointPort(c), "checkpoint", components.CheckpointPortType)
}

// begin starts the first step's sample. The set-up go call runs no
// step, so SaveIfDue is first called at the end of step 0.
func (c *stepClock) begin() { c.mark() }

func (c *stepClock) mark() {
	c.cells = append(c.cells, c.mesh.Hierarchy().TotalCells())
	if c.probing {
		c.probes = append(c.probes, probe())
		c.liveHeapMax = max(c.liveHeapMax, liveHeapMiB())
	}
	c.cpu0 = cpuSeconds()
	c.start = time.Now()
}

func (c *stepClock) Restore(string) (*ckpt.Meta, error) { return nil, nil }

func (c *stepClock) SaveIfDue(meta ckpt.Meta) error {
	c.steps = append(c.steps, time.Since(c.start).Seconds())
	c.cpu = append(c.cpu, cpuSeconds()-c.cpu0)
	if c.onStep != nil {
		c.onStep(meta.Step)
	}
	c.mark()
	return nil
}

// end drops the cell count of the step that never ran.
func (c *stepClock) end() {
	if len(c.cells) > len(c.steps) {
		c.cells = c.cells[:len(c.steps)]
	}
}

func (c *stepClock) Flush() error { return nil }

// wireClock adds a step clock to an assembled framework and points the
// run instance's checkpoint uses port at it.
func wireClock(f *cca.Framework, runInstance, meshInstance string) (*stepClock, error) {
	if err := f.Instantiate(clockClass, clockInstance); err != nil {
		return nil, err
	}
	if err := f.Connect(runInstance, "checkpoint", clockInstance, "checkpoint"); err != nil {
		return nil, err
	}
	comp, err := f.Lookup(clockInstance)
	if err != nil {
		return nil, err
	}
	mc, err := f.Lookup(meshInstance)
	if err != nil {
		return nil, err
	}
	c := comp.(*stepClock)
	c.mesh = mc.(*components.GrACEComponent)
	return c, nil
}
