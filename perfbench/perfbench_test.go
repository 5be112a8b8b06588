package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/euler"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
	"ccahydro/internal/serve"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		if drawFlame(seed) != drawFlame(seed) || drawShock(seed) != drawShock(seed) {
			t.Fatalf("seed %d: simulation inputs differ between draws", seed)
		}
		if !reflect.DeepEqual(planServe(seed), planServe(seed)) {
			t.Fatalf("seed %d: serve plans differ between draws", seed)
		}
		_, p1 := flameWorkload(seed)
		_, p2 := flameWorkload(seed)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("seed %d: resolved flame parameters differ", seed)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	if drawFlame(1) == drawFlame(2) {
		t.Error("flame inputs do not depend on the seed")
	}
	if drawShock(1) == drawShock(2) {
		t.Error("shock inputs do not depend on the seed")
	}
	if reflect.DeepEqual(planServe(1), planServe(2)) {
		t.Error("serve plans do not depend on the seed")
	}
}

func TestInputsStayInBand(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		f := drawFlame(seed)
		if f.Thot < 1790 || f.Thot > 1810 || f.Radius < 0.058 || f.Radius > 0.062 || f.NSpots != 3 {
			t.Fatalf("seed %d: flame inputs %+v outside the band", seed, f)
		}
		if s := drawShock(seed); s.Amplitude < 0.035 || s.Amplitude > 0.045 || s.Modes != 3 {
			t.Fatalf("seed %d: shock inputs %+v outside the band", seed, s)
		}
	}
}

// The plan's shares are fixed, every reuse follows its base, and the
// two clients never share a key.
func TestServePlanShape(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		plans := planServe(seed)
		keys := map[string]int{}
		for c, plan := range plans {
			roles := map[string]int{}
			for i, j := range plan {
				roles[j.Role]++
				if j.Role != "cold" && (j.Base < 0 || j.Base >= i) {
					t.Fatalf("seed %d client %d job %d: %s of job %d", seed, c, i, j.Role, j.Base)
				}
				k := specKey(j.Spec)
				if other, ok := keys[k]; ok && other != c {
					t.Fatalf("seed %d: clients %d and %d share a job key", seed, other, c)
				}
				keys[k] = c
			}
			want := map[string]int{"cold": 3 * serveColdPerKind, "repeat": serveRepeats, "extend": serveExtends}
			if !reflect.DeepEqual(roles, want) {
				t.Fatalf("seed %d client %d: roles %v, want %v", seed, c, roles, want)
			}
		}
	}
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every metric the benchmark prints is declared in BENCHMARK.json with
// the same unit, and nothing is declared that it does not print.
func TestMetricsDeclared(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	check := func(what string, printed []struct{ name, unit string }, decl []declared) {
		units := map[string]string{}
		for _, d := range decl {
			units[d.Name] = d.Unit
		}
		seen := map[string]bool{}
		for _, m := range printed {
			if !metricName.MatchString(m.name) {
				t.Errorf("%s metric %q: bad name", what, m.name)
			}
			if seen[m.name] {
				t.Errorf("%s metric %q printed twice", what, m.name)
			}
			seen[m.name] = true
			u, ok := units[m.name]
			if !ok {
				t.Errorf("%s metric %q is not declared in BENCHMARK.json", what, m.name)
			} else if u != m.unit {
				t.Errorf("%s metric %q: unit %q, declared %q", what, m.name, m.unit, u)
			}
		}
		for _, d := range decl {
			if !seen[d.Name] {
				t.Errorf("%s metric %q is declared but never printed", what, d.Name)
			}
		}
	}
	check("end-to-end", endToEnd, bm.EndToEnd)
	check("per-layer", perLayer, bm.PerLayer)

	out := newOutcome()
	emit(out, false, map[string]float64{})
	if len(out.metrics) != len(bm.EndToEnd) {
		t.Errorf("untraced run prints %d metrics, %d declared", len(out.metrics), len(bm.EndToEnd))
	}
	out = newOutcome()
	emit(out, true, map[string]float64{})
	if len(out.metrics) != len(bm.PerLayer) {
		t.Errorf("traced run prints %d metrics, %d declared", len(out.metrics), len(bm.PerLayer))
	}
}

// testField is a one-patch 4×4 field of ncomp components on a serial
// hierarchy, filled by fill.
func testField(ncomp int, fill func(pd *field.PatchData, i, j int)) *field.DataObject {
	h := amr.NewHierarchy(amr.NewBox(0, 0, 3, 3), 2, 1, 1)
	d := field.New("test", h, ncomp, 0, nil)
	forCells(d, fill)
	return d
}

// A flame state that passes, for the corruption tests to break.
func flameState(pd *field.PatchData, i, j int) {
	pd.Set(0, i, j, 1500)
	pd.Set(1, i, j, 0.25)
	pd.Set(2, i, j, 0.75)
}

func flameRef(traj []float64) *reference {
	r := &reference{}
	r.Flame.Thot = []float64{1775, 1825}
	r.Flame.Radius = []float64{0.058, 0.062}
	r.Flame.Tmax = [][][]float64{{traj, traj}, {traj, traj}}
	return r
}

func TestFlameOracle(t *testing.T) {
	in := flameInputs{Thot: 1800, Radius: 0.06, NSpots: 3}
	traj := make([]float64, flameSteps/flameProbeEvery)
	for k := range traj {
		traj[k] = 1800
	}
	judge := func(fill func(pd *field.PatchData, i, j int), tmax []float64) []string {
		o := newSimOracle()
		scanFlame(testField(3, fill), o)
		o.tmaxTraj = tmax
		return judgeFlame(o, in, flameRef(traj))
	}
	if bad := judge(flameState, traj); len(bad) > 0 {
		t.Fatalf("a good flame state fails: %v", bad)
	}
	corrupt := map[string]func(pd *field.PatchData, i, j int){
		"NaN cell": func(pd *field.PatchData, i, j int) {
			flameState(pd, i, j)
			if i == 2 && j == 1 {
				pd.Set(0, i, j, math.NaN())
			}
		},
		"negative mass fraction": func(pd *field.PatchData, i, j int) {
			flameState(pd, i, j)
			pd.Set(1, i, j, -0.01)
			pd.Set(2, i, j, 1.01)
		},
		"unnormalized mass fractions": func(pd *field.PatchData, i, j int) {
			flameState(pd, i, j)
			pd.Set(2, i, j, 0.8)
		},
		"temperature out of range": func(pd *field.PatchData, i, j int) {
			flameState(pd, i, j)
			pd.Set(0, i, j, 5000)
		},
	}
	for name, fill := range corrupt {
		if bad := judge(fill, traj); len(bad) == 0 {
			t.Errorf("%s: oracle accepted a corrupted flame state", name)
		}
	}
	off := append([]float64(nil), traj...)
	off[len(off)-1] *= 1.05
	if bad := judge(flameState, off); len(bad) == 0 {
		t.Error("oracle accepted a Tmax 5% off the reference")
	}
}

func TestShockOracle(t *testing.T) {
	const gamma = 1.4
	good := func(pd *field.PatchData, i, j int) {
		pd.Set(euler.IRho, i, j, 1)
		pd.Set(euler.IMx, i, j, 0)
		pd.Set(euler.IMy, i, j, 0.5)
		pd.Set(euler.IE, i, j, 2.5+0.125)
		pd.Set(euler.IZeta, i, j, 0.5)
	}
	judge := func(fill func(pd *field.PatchData, i, j int), circ float64) []string {
		o := newSimOracle()
		scanShock(testField(euler.NumComp, fill), 0.25, 0.25, gamma, o)
		o.times = []float64{0.2, shockTEnd}
		o.circ = []float64{0, circ}
		ref := &reference{}
		ref.Shock.Amplitude = []float64{0.035, 0.045}
		ref.Shock.Mass = []float64{1, 1}
		ref.Shock.VyAbs = []float64{0.5, 0.5}
		ref.Shock.ZetaX = []float64{0.5, 0.5}
		return judgeShock(o, shockInputs{Amplitude: 0.04, Modes: 3}, ref)
	}
	if bad := judge(good, 0); len(bad) > 0 {
		t.Fatalf("a good shock state fails: %v", bad)
	}
	if bad := judge(good, 1e-3); len(bad) == 0 {
		t.Error("oracle accepted a circulation that breaks the symmetry")
	}
	corrupt := map[string]func(pd *field.PatchData, i, j int){
		"NaN cell": func(pd *field.PatchData, i, j int) {
			good(pd, i, j)
			if i == 1 && j == 3 {
				pd.Set(euler.IE, i, j, math.NaN())
			}
		},
		"negative pressure": func(pd *field.PatchData, i, j int) {
			good(pd, i, j)
			pd.Set(euler.IE, i, j, 0.1)
		},
		"wrong mass": func(pd *field.PatchData, i, j int) {
			good(pd, i, j)
			pd.Set(euler.IRho, i, j, 1.1)
		},
	}
	for name, fill := range corrupt {
		if bad := judge(fill, 0); len(bad) == 0 {
			t.Errorf("%s: oracle accepted a corrupted shock state", name)
		}
	}
}

func TestServeOracle(t *testing.T) {
	base := &serve.Result{Steps: 3, Series: map[string][]float64{"cells": {64, 80, 80}, "Tmax": {1900}, "stepSeconds": {0.1, 0.1, 0.1}}}
	sp := flameJob(1800, 3)
	plans := [][]servePlanJob{{
		{Kind: "flame", Role: "cold", Base: -1, Steps: 3, Spec: sp},
		{Kind: "flame", Role: "repeat", Base: 0, Steps: 3, Spec: sp},
		{Kind: "flame", Role: "extend", Base: 0, Steps: 5, Spec: withSteps(sp, "flame", 5)},
	}}
	outcomes := func(hit, ext *serve.Result) [][]jobOutcome {
		done := func(r *serve.Result, cache, warm bool, run int) jobOutcome {
			return jobOutcome{status: serve.Status{State: serve.StateDone, Result: r, CacheHit: cache, WarmStart: warm, StepsRun: run}}
		}
		return [][]jobOutcome{{done(base, false, false, 3), done(hit, true, false, 0), done(ext, false, true, 2)}}
	}
	ext := &serve.Result{Steps: 5, Series: map[string][]float64{"cells": {64, 80, 80, 96, 96}, "Tmax": {1950}, "stepSeconds": {1, 1, 1, 1, 1}}}
	hit := &serve.Result{Steps: 3, Series: map[string][]float64{"cells": {64, 80, 80}, "Tmax": {1900}, "stepSeconds": {0.2, 0.2, 0.2}}}
	if bad := checkServe(plans, outcomes(hit, ext)); len(bad) > 0 {
		t.Fatalf("good job results fail: %v", bad)
	}
	wrongHit := &serve.Result{Steps: 3, Series: map[string][]float64{"cells": {64, 80, 80}, "Tmax": {1901}}}
	if bad := checkServe(plans, outcomes(wrongHit, ext)); len(bad) == 0 {
		t.Error("oracle accepted a store hit whose result differs from its base")
	}
	wrongExt := &serve.Result{Steps: 5, Series: map[string][]float64{"cells": {64, 81, 80, 96, 96}, "Tmax": {1950}}}
	if bad := checkServe(plans, outcomes(hit, wrongExt)); len(bad) == 0 {
		t.Error("oracle accepted a warm start that does not continue its base")
	}
	nanExt := &serve.Result{Steps: 5, Series: map[string][]float64{"cells": {64, 80, 80, 96, 96}, "Tmax": {math.NaN()}}}
	if bad := checkServe(plans, outcomes(hit, nanExt)); len(bad) == 0 {
		t.Error("oracle accepted a NaN in a job result")
	}
	failed := outcomes(hit, ext)
	failed[0][2].status.State = serve.StateFailed
	if bad := checkServe(plans, failed); len(bad) == 0 {
		t.Error("oracle accepted a failed job")
	}
}

// shortFlame is the flame workload cut to 10 steps, for tests.
func shortFlame() (*simWorkload, flameInputs) {
	w, _ := flameWorkload(3)
	w.durValue = "10"
	return w, drawFlame(3)
}

// Two repetitions of one seed give identical deterministic counters,
// and a traced repetition's self times add up to its go-port time.
func TestCountersRepeatAndSelfTimesAddUp(t *testing.T) {
	w, _ := shortFlame()
	a, err := runSimRep("..", w, modeRun)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSimRep("..", w, modeRun)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameCounters(a.counters, b.counters); len(diff) > 0 {
		t.Fatalf("counters differ between repetitions: %s", strings.Join(diff, "; "))
	}
	if a.counters["cvode.rhs_evals"] == 0 || a.counters["amr.cell_updates"] == 0 {
		t.Fatalf("counters not collected: %v", a.counters)
	}
	exec.SetDefaultWidth(1)
	defer exec.SetDefaultWidth(runtime.GOMAXPROCS(0))
	tr, err := runSimRep("..", w, modeTraced)
	if err != nil {
		t.Fatal(err)
	}
	for l, s := range tr.layers.selfS {
		if s < 0 {
			t.Errorf("layer %s has negative self time %v s", l, s)
		}
	}
	if got, want := tr.layers.totalSelf(), tr.goSeconds; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("self times sum to %v s, go-port time is %v s", got, want)
	}
	if tr.layers.calls["transport"] == 0 || tr.layers.selfS["transport"] <= 0 {
		t.Fatalf("no transport calls attributed: %+v", tr.layers)
	}
	if tr.layers.calls["euler.flux"] != 0 {
		t.Fatalf("flame attributed Euler flux calls: %+v", tr.layers)
	}
}

// A small plan through the real scheduler and HTTP listener: every job
// passes the oracle, and the repeat and the extension of each client
// are a store hit and a warm start.
func TestServeBatch(t *testing.T) {
	var plans [][]servePlanJob
	for c := 0; c < serveClients; c++ {
		sp := shockJob(1+0.01*float64(c), 3)
		plans = append(plans, []servePlanJob{
			{Kind: "shock", Role: "cold", Base: -1, Steps: 3, Spec: sp},
			{Kind: "shock", Role: "repeat", Base: 0, Steps: 3, Spec: sp},
			{Kind: "shock", Role: "extend", Base: 0, Steps: 5, Spec: withSteps(sp, "shock", 5)},
		})
	}
	rep, err := runServeRep(t.TempDir(), plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.failures) > 0 {
		t.Fatalf("failures: %v", rep.failures)
	}
	want := map[string]float64{"serve.jobs": 6, "serve.cache_hits": 2, "serve.warm_starts": 2, "serve.coalesced": 0,
		"serve.live_steps": 10, "ckpt.restores": 2}
	for k, v := range want {
		if rep.counters[k] != v {
			t.Errorf("%s = %v, want %v", k, rep.counters[k], v)
		}
	}
	if rep.counters["ckpt.saves"] == 0 || rep.counters["ckpt.bytes_written"] == 0 {
		t.Errorf("no checkpoints counted: %v", rep.counters)
	}
}

// On a host at the reference speed adjusted and measured times agree;
// on a host that runs the probe twice as slowly they shrink by
// 2^probeSensitivity.
func TestAdjust(t *testing.T) {
	if got := adjust(3, probeNominal, probeNominal); math.Abs(got-3) > 1e-12 {
		t.Errorf("at the reference speed: got %v, want 3", got)
	}
	want := 3 / math.Pow(2, probeSensitivity)
	if got := adjust(3, 1.5*probeNominal, 2.5*probeNominal); math.Abs(got-want) > 1e-12 {
		t.Errorf("at half speed: got %v, want %v", got, want)
	}
	if p := probe(); !(p > 0) {
		t.Errorf("probe took %v s", p)
	}
}
