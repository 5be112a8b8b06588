package main

import (
	"math/rand/v2"
	"strconv"

	"ccahydro/internal/scenario"
)

// Seeded workload inputs. Every workload draws its parameters from a
// PCG stream keyed by (seed, workload), so one seed always yields the
// same inputs and the program under test receives nothing else. The
// bands are narrow on purpose: a run's cost must not depend on which
// seed it drew, only its answer.

func rng(seed uint64, workload string) *rand.Rand {
	var salt uint64 = 1469598103934665603
	for _, c := range []byte(workload) {
		salt = (salt ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, salt))
}

// uniform draws from [lo, hi) and rounds to four significant decimals
// so the value prints the same way it is used.
func uniform(r *rand.Rand, lo, hi float64) float64 {
	v := lo + (hi-lo)*r.Float64()
	s := strconv.FormatFloat(v, 'g', 4, 64)
	v, _ = strconv.ParseFloat(s, 64)
	return v
}

func fstr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Flame: scenarios/flame2d.scn at a pinned AMR size.
const (
	flameNX          = 8
	flameLevels      = 2
	flameSteps       = 100
	flameDt          = 1e-7
	flameRegridEvery = 5
	flameProbeEvery  = 10
)

type flameInputs struct {
	Thot, Radius float64
	NSpots       int
}

func drawFlame(seed uint64) flameInputs {
	r := rng(seed, "flame")
	return flameInputs{
		Thot:   uniform(r, 1790, 1810),
		Radius: uniform(r, 0.058, 0.062),
		NSpots: 3,
	}
}

func (in flameInputs) overrides() []scenario.Param {
	n := strconv.Itoa(flameNX)
	return []scenario.Param{
		{Instance: "grace", Key: "nx", Value: n},
		{Instance: "grace", Key: "ny", Value: n},
		{Instance: "grace", Key: "maxLevels", Value: strconv.Itoa(flameLevels)},
		{Instance: "driver", Key: "dt", Value: fstr(flameDt)},
		{Instance: "driver", Key: "regridEvery", Value: strconv.Itoa(flameRegridEvery)},
		{Instance: "ic", Key: "Thot", Value: fstr(in.Thot)},
		{Instance: "ic", Key: "radius", Value: fstr(in.Radius)},
		{Instance: "ic", Key: "nspots", Value: strconv.Itoa(in.NSpots)},
	}
}

func flameWorkload(seed uint64) (*simWorkload, map[string]any) {
	in := drawFlame(seed)
	w := &simWorkload{
		name:      "flame",
		scenario:  "scenarios/flame2d.scn",
		ranks:     1,
		overrides: in.overrides(),
		durKey:    "steps",
		durValue:  strconv.Itoa(flameSteps),
		check:     checkFlame("phi"),
		probe:     probeFlameTmax("phi", flameProbeEvery),
	}
	return w, map[string]any{
		"scenario": w.scenario, "ranks": w.ranks, "nx": flameNX, "ny": flameNX,
		"maxLevels": flameLevels, "steps": flameSteps, "dt": flameDt,
		"regridEvery": flameRegridEvery, "Thot": in.Thot, "radius": in.Radius, "nspots": in.NSpots,
	}
}

// Shock: the Richtmyer–Meshkov library scenario at its base point on
// two SCMD ranks.
const shockRanks = 2

type shockInputs struct {
	Amplitude float64
	Modes     int
}

func drawShock(seed uint64) shockInputs {
	r := rng(seed, "shock")
	return shockInputs{Amplitude: uniform(r, 0.035, 0.045), Modes: 3}
}

func (in shockInputs) overrides() []scenario.Param {
	return []scenario.Param{
		{Instance: "ic", Key: "amplitude", Value: fstr(in.Amplitude)},
		{Instance: "ic", Key: "modes", Value: strconv.Itoa(in.Modes)},
	}
}

func shockWorkload(seed uint64) (*simWorkload, map[string]any) {
	in := drawShock(seed)
	w := &simWorkload{
		name:      "shock",
		scenario:  "scenarios/richtmyer_meshkov.scn",
		ranks:     shockRanks,
		overrides: in.overrides(),
		durKey:    "maxSteps",
		durValue:  "10000",
		check:     checkShock("U", "driver", 1.4),
	}
	return w, map[string]any{
		"scenario": w.scenario, "ranks": w.ranks,
		"amplitude": in.Amplitude, "modes": in.Modes,
	}
}
