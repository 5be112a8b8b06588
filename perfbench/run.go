package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ccahydro/internal/exec"
	"ccahydro/internal/serve"
)

// setupTrials is how many extra set-ups a run times for setup_s before
// its measured repetitions; it times one more after each repetition, so
// that the samples spread over the whole run.
const setupTrials = 9

// End-to-end metrics, printed by untraced runs of every workload. An
// "operation" is a driver step on flame and shock and a job (submit to
// done) on serve_mix; throughput counts cell updates on flame and
// shock and jobs on serve_mix. Every time is adjusted to the reference
// host speed (probe.go).
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
	{"throughput_per_s", "1/s"},
	{"cpu_s", "s"},
	{"heap_live_peak_mb", "MiB"},
}

// perLayer lists every per-layer metric a traced run prints. A layer
// the workload does not exercise reads 0.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, l := range callLayers {
		add("count", l+".calls")
	}
	for _, l := range timedLayers {
		add("s", l+".self_s")
	}
	add("count", "cvode.steps", "cvode.rhs_evals", "cvode.jac_builds", "cvode.newton_iters",
		"amr.cell_updates", "amr.patches_final", "mpi.msgs", "mpi.words", "cca.port_calls")
	add("s", "mpi.comm_virtual_s", "mpi.hidden_virtual_s")
	add("calls/cell", "cca.port_calls_per_cell_update")
	add("count", "go.allocs_per_step", "go.gc_cycles")
	add("B", "go.alloc_bytes_per_step")
	add("count", "ckpt.saves", "ckpt.restores")
	add("B", "ckpt.bytes_written")
	add("s", "ckpt.save_s", "ckpt.restore_s")
	add("count", "serve.jobs", "serve.cache_hits", "serve.warm_starts", "serve.coalesced",
		"serve.live_steps", "serve.steps_requested")
	add("ratio", "serve.steps_saved_ratio", "serve.hit_share", "serve.warm_share")
	add("s", "scenario.compile_s", "cca.assemble_s", "trace.unattributed_s", "trace.overhead_s")
	return out
}()

// emit fills out.metrics with the metric set the mode prints, taking
// values from vals and 0 for the layers this workload leaves idle.
func emit(out *outcome, traced bool, vals map[string]float64) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	for _, m := range set {
		out.set(m.name, m.unit, vals[m.name])
	}
}

// keepGoing reports whether another repetition of about last's length
// fits in the budget; the first repetition always runs.
func keepGoing(start time.Time, budget, last time.Duration, reps int) bool {
	return reps == 0 || time.Since(start)+last <= budget
}

// runSim runs a simulation workload for the budget. Every run pins the
// exec pool to one worker: attribution needs it (see layers.go), and a
// pool as wide as the machine oversubscribes it whenever ranks or jobs
// already fill the CPUs. Untraced runs are also single-threaded
// (GOMAXPROCS 1, the shock's two ranks interleaving on one thread): on
// a shared 2-vCPU host the second CPU is not reliably available, and
// with two threads the flame's wall time spread 21% across runs
// (interquartile range over median, 5 seeds) while its CPU time spread
// 3.5%; single-threaded, both spread under 1%. Traced runs keep every
// CPU so that each rank's wires are timed on a thread of its own; they
// alternate an untraced and a traced repetition, so trace.overhead_s
// compares like with like.
func runSim(root string, w *simWorkload, judge func(*simOracle) []string, budget time.Duration, traced bool) (*outcome, error) {
	exec.SetDefaultWidth(1)
	if !traced {
		runtime.GOMAXPROCS(1)
	}
	out := newOutcome()
	var setups, rawSetups, compiles, assembles []float64
	setupTrial := func() error {
		rep, err := runSimRep(root, w, modeSetup)
		if err != nil {
			return err
		}
		setups = append(setups, rep.setupS)
		rawSetups = append(rawSetups, rep.rawSetupS)
		compiles = append(compiles, rep.compileS)
		assembles = append(assembles, rep.assembleS)
		return nil
	}
	for i := 0; i < setupTrials; i++ {
		if err := setupTrial(); err != nil {
			return nil, err
		}
	}

	modes := []repMode{modeRun}
	if traced {
		modes = []repMode{modeRun, modeTraced}
	}
	reps := map[repMode][]*simRep{}
	first := map[repMode]map[string]float64{}
	start := time.Now()
	var last time.Duration
	for n := 0; keepGoing(start, budget, last, n); n++ {
		t := time.Now()
		for _, m := range modes {
			rep, err := runSimRep(root, w, m)
			if err != nil {
				return nil, err
			}
			out.attempted++
			bad := judge(rep.oracle)
			if first[m] == nil {
				first[m] = rep.counters
			} else {
				bad = append(bad, sameCounters(first[m], rep.counters)...)
			}
			if len(bad) > 0 {
				out.fail(bad...)
			}
			reps[m] = append(reps[m], rep)
			setups = append(setups, rep.setupS)
			rawSetups = append(rawSetups, rep.rawSetupS)
			fmt.Fprintf(os.Stderr, "perfbench: %s repetition %d (traced %v): wall %.4f s (adjusted %.4f s), step p50 %.5f s, p90 %.5f s (adjusted), probe p50 %.6f s\n",
				w.name, n, m == modeTraced, rep.wallS, rep.wallAdjS, quantile(rep.steps, 0.5), quantile(rep.steps, 0.9), median(rep.probes))
		}
		if err := setupTrial(); err != nil {
			return nil, err
		}
		last = time.Since(t)
	}

	base := reps[modeRun]
	var steps, probes []float64
	for _, r := range base {
		steps = append(steps, r.steps...)
		probes = append(probes, r.probes...)
	}
	vals := map[string]float64{
		"wall_s":            median(pick(base, func(r *simRep) float64 { return r.wallAdjS })),
		"setup_s":           median(setups),
		"op_p50_s":          quantile(steps, 0.5),
		"op_p90_s":          quantile(steps, 0.9),
		"throughput_per_s":  median(pick(base, func(r *simRep) float64 { return r.cellUpdates / r.wallAdjS })),
		"cpu_s":             median(pick(base, func(r *simRep) float64 { return r.cpuAdjS })),
		"heap_live_peak_mb": median(pick(base, func(r *simRep) float64 { return r.liveHeapPeakMiB })),
	}
	out.named["wall_s"] = vals["wall_s"]
	out.named["step_p50_s"] = vals["op_p50_s"]
	out.named["step_p90_s"] = vals["op_p90_s"]
	out.named["step_samples"] = float64(len(steps))
	out.named["cell_updates_per_s"] = vals["throughput_per_s"]
	out.named["repetitions"] = float64(len(base))
	out.named["measured_wall_s"] = median(pick(base, func(r *simRep) float64 { return r.wallS }))
	out.named["measured_setup_s"] = median(rawSetups)
	out.named["probe_p50_s"] = median(probes)
	out.named["rss_peak_mb"] = peakRSSMiB()
	out.counters = first[modeRun]

	if traced {
		// Timing the wires must not change the computation.
		if diff := sameCounters(first[modeRun], first[modeTraced]); len(diff) > 0 {
			out.fail(diff...)
		}
		tr := reps[modeTraced]
		out.counters = first[modeTraced]
		for k, v := range out.counters {
			vals[k] = v
		}
		for _, l := range timedLayers {
			vals[l+".self_s"] = median(pick(tr, func(r *simRep) float64 { return r.layers.selfS[l] }))
		}
		stepsRun := out.counters["driver.steps"]
		vals["cca.port_calls_per_cell_update"] = out.counters["cca.port_calls"] / out.counters["amr.cell_updates"]
		vals["go.allocs_per_step"] = median(pick(base, func(r *simRep) float64 { return float64(r.allocs.mallocs) / stepsRun }))
		vals["go.alloc_bytes_per_step"] = median(pick(base, func(r *simRep) float64 { return float64(r.allocs.bytes) / stepsRun }))
		vals["go.gc_cycles"] = median(pick(base, func(r *simRep) float64 { return float64(r.allocs.gcs) }))
		vals["scenario.compile_s"] = median(compiles)
		vals["cca.assemble_s"] = median(assembles)
		vals["trace.unattributed_s"] = median(pick(tr, func(r *simRep) float64 { return r.cpuS - r.layers.totalSelf() }))
		vals["trace.overhead_s"] = median(pick(tr, func(r *simRep) float64 { return r.wallAdjS })) - vals["wall_s"]
	}
	emit(out, traced, vals)
	return out, nil
}

// runServe runs serve_mix for the budget: repeated batches of the
// seeded plan, each on a fresh scheduler, so every batch sees the same
// hits and warm starts. Like the simulations it runs single-threaded
// with a one-worker exec pool (see runSim): the two rank slots'
// jobs interleave on one thread. A traced run adds the checkpoint-layer
// probe.
func runServe(root string, plans [][]servePlanJob, budget time.Duration, traced bool) (*outcome, error) {
	scratch, err := scratchDir(root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	runtime.GOMAXPROCS(1)
	exec.SetDefaultWidth(1)
	out := newOutcome()
	var setups, rawSetups []float64
	setupDir := filepath.Join(scratch, "setup")
	setupTrial := func() error {
		s, raw, err := serveSetupOnly(setupDir)
		if err != nil {
			return err
		}
		setups = append(setups, s)
		rawSetups = append(rawSetups, raw)
		return nil
	}
	for i := 0; i < setupTrials; i++ {
		if err := setupTrial(); err != nil {
			return nil, err
		}
	}
	var reps []*serveRep
	var lats, probes []float64
	start := time.Now()
	var last time.Duration
	for n := 0; keepGoing(start, budget, last, n); n++ {
		t := time.Now()
		rep, err := runServeRep(scratch, plans)
		if err != nil {
			return nil, err
		}
		if err := setupTrial(); err != nil {
			return nil, err
		}
		last = time.Since(t)
		fmt.Fprintf(os.Stderr, "perfbench: serve_mix batch %d: wall %.4f s (adjusted %.4f s), job p50 %.5f s, p90 %.5f s (adjusted), probe p50 %.6f s\n",
			n, rep.wallS, rep.wallAdjS, quantile(rep.latencies, 0.5), quantile(rep.latencies, 0.9), median(rep.probes))
		out.attempted += rep.jobs
		bad := rep.failures
		if len(reps) > 0 {
			bad = append(bad, sameResults(reps[0].results, rep.results)...)
			if diff := sameCounters(reps[0].counters, rep.counters); len(diff) > 0 {
				bad = append(bad, jobFailure{client: -1, job: -1, reason: strings.Join(diff, "; ")})
			}
		}
		out.failed += failedJobs(bad)
		for _, f := range bad {
			out.failures = append(out.failures, f.String())
		}
		reps = append(reps, rep)
		lats = append(lats, rep.latencies...)
		probes = append(probes, rep.probes...)
	}
	out.failed = min(out.failed, out.attempted)
	vals := map[string]float64{
		"wall_s":            median(pick(reps, func(r *serveRep) float64 { return r.wallAdjS })),
		"setup_s":           median(setups),
		"op_p50_s":          quantile(lats, 0.5),
		"op_p90_s":          quantile(lats, 0.9),
		"throughput_per_s":  median(pick(reps, func(r *serveRep) float64 { return float64(r.jobs) / r.wallAdjS })),
		"cpu_s":             median(pick(reps, func(r *serveRep) float64 { return r.cpuAdjS })),
		"heap_live_peak_mb": median(pick(reps, func(r *serveRep) float64 { return r.liveHeapPeakMiB })),
	}
	c := reps[0].counters
	out.counters = c
	out.named["job_p50_s"] = vals["op_p50_s"]
	out.named["job_p90_s"] = vals["op_p90_s"]
	out.named["jobs_per_s"] = vals["throughput_per_s"]
	out.named["job_samples"] = float64(len(lats))
	out.named["hit_share"] = c["serve.cache_hits"] / c["serve.jobs"]
	out.named["warm_share"] = c["serve.warm_starts"] / c["serve.jobs"]
	out.named["repetitions"] = float64(len(reps))
	out.named["measured_wall_s"] = median(pick(reps, func(r *serveRep) float64 { return r.wallS }))
	out.named["measured_setup_s"] = median(rawSetups)
	out.named["probe_p50_s"] = median(probes)
	out.named["rss_peak_mb"] = peakRSSMiB()
	if traced {
		for k, v := range c {
			vals[k] = v
		}
		vals["serve.steps_saved_ratio"] = c["serve.steps_saved"] / c["serve.steps_requested"]
		vals["serve.hit_share"] = out.named["hit_share"]
		vals["serve.warm_share"] = out.named["warm_share"]
		jobs := c["serve.jobs"]
		vals["go.allocs_per_step"] = median(pick(reps, func(r *serveRep) float64 { return float64(r.allocs.mallocs) / jobs }))
		vals["go.alloc_bytes_per_step"] = median(pick(reps, func(r *serveRep) float64 { return float64(r.allocs.bytes) / jobs }))
		vals["go.gc_cycles"] = median(pick(reps, func(r *serveRep) float64 { return float64(r.allocs.gcs) }))
		t0 := time.Now()
		p, err := probeCheckpoint(scratch)
		if err != nil {
			return nil, err
		}
		vals["trace.overhead_s"] = time.Since(t0).Seconds()
		vals["ckpt.save_s"] = p.saveS
		vals["ckpt.restore_s"] = p.restoreS
		vals["trace.unattributed_s"] = median(pick(reps, func(r *serveRep) float64 { return r.cpuS }))
	}
	emit(out, traced, vals)
	return out, nil
}

// sameResults compares every job's result with the first batch's.
func sameResults(a, b [][]*serve.Result) []jobFailure {
	var diff []jobFailure
	for c := range a {
		for i := range a[c] {
			x, y := a[c][i], b[c][i]
			if x == nil || y == nil {
				continue
			}
			if !sameSeries(x, y, false) {
				diff = append(diff, jobFailure{c, i, "result differs from the first repetition"})
			}
		}
	}
	return diff
}

// serveSetupOnly times scheduler creation and listener start over the
// state directory dir, adjusted to the reference speed and as measured.
// Every trial after a run's first finds dir in place, as a restarted
// server does. Creating the directories is left out on purpose: on the
// ext4 disk the benchmark was tuned on, a mkdir took 0.1 ms in some
// processes and 1.2 ms in others, which swamped the rest of set-up.
func serveSetupOnly(dir string) (adjusted, measured float64, err error) {
	before := probe()
	t0 := time.Now()
	sched, err := serve.NewScheduler(serve.Options{Slots: serveSlots, Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	srv, err := serve.Listen("127.0.0.1:0", sched)
	if err != nil {
		sched.Close()
		return 0, 0, err
	}
	d := time.Since(t0).Seconds()
	a := adjust(d, before, probe())
	srv.Close()
	sched.Close()
	return a, d, nil
}

// describePlan summarizes the serve plan for provenance.
func describePlan(plans [][]servePlanJob) map[string]any {
	roles := map[string]int{}
	kinds := map[string]int{}
	for _, p := range plans {
		for _, j := range p {
			roles[j.Role]++
			kinds[j.Kind]++
		}
	}
	return map[string]any{"clients": len(plans), "slots": serveSlots, "roles": roles, "kinds": kinds,
		"jobs": len(plans) * len(plans[0])}
}

// makeReference records the observables reference.json holds on the
// band grids and writes the file to perfbench/reference.json.
func makeReference(root string) int {
	var r reference
	r.Flame.Thot = []float64{1775, 1800, 1825}
	r.Flame.Radius = []float64{0.058, 0.06, 0.062}
	for _, thot := range r.Flame.Thot {
		var row [][]float64
		for _, rad := range r.Flame.Radius {
			w, _ := flameWorkload(0)
			w.overrides = flameInputs{Thot: thot, Radius: rad, NSpots: 3}.overrides()
			rep, err := runSimRep(root, w, modeRun)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			row = append(row, rep.oracle.tmaxTraj)
		}
		r.Flame.Tmax = append(r.Flame.Tmax, row)
	}
	r.Shock.Amplitude = []float64{0.035, 0.04, 0.045}
	for _, amp := range r.Shock.Amplitude {
		w, _ := shockWorkload(0)
		w.overrides = shockInputs{Amplitude: amp, Modes: 3}.overrides()
		rep, err := runSimRep(root, w, modeRun)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		o := rep.oracle
		r.Shock.Mass = append(r.Shock.Mass, o.mass)
		r.Shock.VyAbs = append(r.Shock.VyAbs, o.vyAbs)
		r.Shock.ZetaX = append(r.Shock.ZetaX, o.zetaMX/o.zetaM)
	}
	b, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		return 1
	}
	if err := os.WriteFile(filepath.Join(root, "perfbench", "reference.json"), append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	os.Stdout.Write(b)
	return 0
}
