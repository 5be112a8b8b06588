// Command perfbench is the repository's benchmark. One invocation runs
// one seeded workload for a fixed time, checks every answer, and prints
// one JSON result line:
//
//	perfbench --workload flame|shock|serve_mix --seed N --seconds S --trace 0|1
//
// --trace 0 measures end to end; --trace 1 runs the same workload with
// every CCA port wire timed and reports exclusive per-layer time and
// the deterministic work counters. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	counters          map[string]float64 // deterministic work counts
	named             map[string]float64 // the same figures under workload-specific names
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, named: map[string]float64{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

// fail records one failed operation with its reasons.
func (o *outcome) fail(reasons ...string) {
	o.failed++
	o.failures = append(o.failures, reasons...)
}

// sameCounters reports which of a's deterministic counters b does not
// repeat exactly.
func sameCounters(a, b map[string]float64) []string {
	var diff []string
	for k, v := range a {
		if b[k] != v {
			diff = append(diff, fmt.Sprintf("counter %s = %v, first repetition had %v", k, b[k], v))
		}
	}
	sort.Strings(diff)
	return diff
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "flame, shock or serve_mix")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository root (holds scenarios/)")
	makeRef := flag.Bool("make-reference", false, "record reference.json's observables and print them")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *makeRef {
		return makeReference(*root)
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	traced := *trace == 1
	var out *outcome
	var params map[string]any
	switch *workload {
	case "flame":
		w, p := flameWorkload(*seed)
		in := drawFlame(*seed)
		params = p
		out, err = runSim(*root, w, func(o *simOracle) []string { return judgeFlame(o, in, ref) }, budget, traced)
	case "shock":
		w, p := shockWorkload(*seed)
		in := drawShock(*seed)
		params = p
		out, err = runSim(*root, w, func(o *simOracle) []string { return judgeShock(o, in, ref) }, budget, traced)
	case "serve_mix":
		plans := planServe(*seed)
		params = describePlan(plans)
		out, err = runServe(*root, plans, budget, traced)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want flame, shock or serve_mix)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	if out.attempted > 0 {
		out.named["fail_frac"] = float64(out.failed) / float64(out.attempted)
	}
	prov := map[string]any{
		"provenance": provenance(*workload, *seed, *seconds, *trace, params),
		"counters":   out.counters,
		"named":      out.named,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(prov); err != nil {
		return 1
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// provenance records where and on what a result was measured.
func provenance(workload string, seed uint64, seconds float64, trace int, params map[string]any) map[string]any {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   rev,
		"dirty":      dirty,
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"params":     params,
	}
}

// scratchDir is the benchmark's private directory inside the checkout.
func scratchDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "perfbench-run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}
