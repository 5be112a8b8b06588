package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccahydro/internal/serve"
)

// serve_mix: an in-process run server (2 rank slots) behind loopback
// HTTP, driven by a closed loop of 2 clients. Each client submits its
// own job sequence and waits for every job before submitting the next,
// so the share of store hits (exact repeats of one of its earlier jobs)
// and warm starts (duration extensions of one of its earlier jobs) is
// fixed by the seed, not by timing. The clients' jobs never share a
// key, so nothing coalesces across them.

const (
	serveClients = 2
	serveSlots   = 2
	// Per client: cold jobs of each kind, exact repeats, extensions.
	serveColdPerKind = 10
	serveRepeats     = 10
	serveExtends     = 10
)

// servePlanJob is one submission of one client.
type servePlanJob struct {
	Kind  string
	Role  string // "cold", "repeat", or "extend"
	Base  int    // index (in the client's sequence) of the reused job; -1 for cold
	Steps int    // requested driver steps (flame/shock), 0 for ignition
	Spec  serve.Spec
}

func flameJob(thot float64, steps int) serve.Spec {
	return serve.Spec{Problem: "flame", Params: map[string]map[string]string{
		"grace":  {"nx": "8", "ny": "8", "maxLevels": "2"},
		"driver": {"steps": strconv.Itoa(steps), "dt": "1e-7", "regridEvery": "2"},
		"ic":     {"Thot": fstr(thot)},
	}}
}

func shockJob(tEnd float64, steps int) serve.Spec {
	return serve.Spec{Problem: "shock", Params: map[string]map[string]string{
		"grace":  {"nx": "32", "ny": "16", "lx": "2.0", "ly": "1.0", "maxLevels": "2"},
		"driver": {"tEnd": fstr(tEnd), "maxSteps": strconv.Itoa(steps), "regridEvery": "2"},
	}}
}

func ignitionJob(t0 float64) serve.Spec {
	return serve.Spec{Problem: "ignition", Params: map[string]map[string]string{
		"driver": {"tEnd": "1e-4", "nOut": "5"},
		"init":   {"T0": fstr(t0)},
	}}
}

// withSteps copies a spec with a different run length.
func withSteps(sp serve.Spec, kind string, steps int) serve.Spec {
	out := serve.Spec{Problem: sp.Problem, Params: map[string]map[string]string{}}
	for inst, kv := range sp.Params {
		out.Params[inst] = map[string]string{}
		for k, v := range kv {
			out.Params[inst][k] = v
		}
	}
	key := "steps"
	if kind == "shock" {
		key = "maxSteps"
	}
	out.Params["driver"][key] = strconv.Itoa(steps)
	return out
}

func specKey(sp serve.Spec) string {
	b, _ := json.Marshal(sp)
	return string(b)
}

// planServe draws both clients' job sequences from the seed. Only the
// order, the reused jobs and each cold job's parameter vary with the
// seed; the mix of kinds, roles and step counts is fixed, so every seed
// asks for the same work.
func planServe(seed uint64) [][]servePlanJob {
	r := rng(seed, "serve_mix")
	used := map[string]bool{}
	// fresh draws specs until one is unique across every cold job of
	// every client, so clients never share a key.
	fresh := func(mk func() serve.Spec) serve.Spec {
		for {
			sp := mk()
			if k := specKey(sp); !used[k] {
				used[k] = true
				return sp
			}
		}
	}
	round6 := func(v float64) float64 {
		p := math.Pow(10, 5-math.Floor(math.Log10(math.Abs(v))))
		return math.Round(v*p) / p
	}
	plans := make([][]servePlanJob, serveClients)
	for c := range plans {
		var roles []string
		for i := 0; i < serveColdPerKind; i++ {
			roles = append(roles, "cold flame", "cold shock", "cold ignition")
		}
		for i := 0; i < serveRepeats; i++ {
			roles = append(roles, "repeat")
		}
		for i := 0; i < serveExtends/2; i++ {
			roles = append(roles, "extend flame", "extend shock")
		}
		r.Shuffle(len(roles), func(i, j int) { roles[i], roles[j] = roles[j], roles[i] })
		var seq []servePlanJob
		extendable := map[string][]int{} // kind -> cold jobs not yet extended
		// A reuse job with nothing to reuse yet waits in pending and
		// goes right after the next cold job that gives it a base.
		var pending []string
		eligible := func(role string) bool {
			kind, ok := strings.CutPrefix(role, "extend ")
			if !ok {
				return len(seq) > 0
			}
			return len(extendable[kind]) > 0
		}
		for len(roles) > 0 || len(pending) > 0 {
			role := ""
			for i, p := range pending {
				if eligible(p) {
					role = p
					pending = append(pending[:i], pending[i+1:]...)
					break
				}
			}
			if role == "" {
				if len(roles) == 0 {
					panic("perfbench: serve plan cannot place reuse jobs")
				}
				role, roles = roles[0], roles[1:]
			}
			if !strings.HasPrefix(role, "cold ") && !eligible(role) {
				pending = append(pending, role)
				continue
			}
			switch kind := role[strings.IndexByte(role, ' ')+1:]; {
			case strings.HasPrefix(role, "cold "):
				j := servePlanJob{Kind: kind, Role: "cold", Base: -1}
				switch kind {
				case "flame":
					j.Steps = 3
					j.Spec = fresh(func() serve.Spec { return flameJob(round6(1775+50*r.Float64()), j.Steps) })
				case "shock":
					j.Steps = 6
					j.Spec = fresh(func() serve.Spec { return shockJob(round6(0.9+0.2*r.Float64()), j.Steps) })
				default:
					j.Spec = fresh(func() serve.Spec { return ignitionJob(round6(1000 + 20*r.Float64())) })
				}
				extendable[kind] = append(extendable[kind], len(seq))
				seq = append(seq, j)
			case role == "repeat":
				b := r.IntN(len(seq))
				base := seq[b]
				seq = append(seq, servePlanJob{Kind: base.Kind, Role: "repeat", Base: b, Steps: base.Steps, Spec: base.Spec})
			default: // extend
				i := r.IntN(len(extendable[kind]))
				b := extendable[kind][i]
				extendable[kind] = append(extendable[kind][:i], extendable[kind][i+1:]...)
				base := seq[b]
				steps := base.Steps + 2
				if kind == "shock" {
					steps = base.Steps + 4
				}
				seq = append(seq, servePlanJob{Kind: kind, Role: "extend", Base: b, Steps: steps,
					Spec: withSteps(base.Spec, kind, steps)})
			}
		}
		plans[c] = seq
	}
	return plans
}

// serveRep is one repetition's measurements.
type serveRep struct {
	wallS, cpuS       float64 // as measured, without the probes' own time
	wallAdjS, cpuAdjS float64
	latencies         []float64 // adjusted
	probes            []float64
	liveHeapPeakMiB   float64 // the most seen at a job's end
	allocs            allocSnap
	counters          map[string]float64
	results           [][]*serve.Result // [client][job]
	failures          []jobFailure
	jobs              int
}

// jobFailure is one reason one job's answer was rejected; job -1 marks
// a failure of a whole batch.
type jobFailure struct {
	client, job int
	reason      string
}

func (f jobFailure) String() string {
	if f.job < 0 {
		return f.reason
	}
	return fmt.Sprintf("client %d job %d: %s", f.client, f.job, f.reason)
}

// failedJobs counts the distinct jobs (and failed batches) in fs.
func failedJobs(fs []jobFailure) int {
	seen := map[[2]int]bool{}
	for _, f := range fs {
		seen[[2]int{f.client, f.job}] = true
	}
	return len(seen)
}

type jobOutcome struct {
	status    serve.Status
	coalesced bool
	latency   float64
	err       error
}

// client is one closed-loop submitter over loopback HTTP.
type client struct {
	base string
	hc   *http.Client
}

func (c *client) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func terminal(s serve.State) bool {
	return s == serve.StateDone || s == serve.StateFailed || s == serve.StateCanceled
}

// run submits one job and waits for it: it follows the job's series
// stream, which ends when the run does, then reads the final status.
// Nothing polls on a timer, so latency is not rounded up to one.
func (c *client) run(sp serve.Spec) jobOutcome {
	t0 := time.Now()
	body, _ := json.Marshal(sp)
	var st serve.Status
	if err := c.do("POST", "/jobs", body, &st); err != nil {
		return jobOutcome{err: err}
	}
	coalesced := st.State == serve.StateWaiting
	for !terminal(st.State) {
		if err := c.do("GET", "/jobs/"+st.ID+"/series", nil, nil); err != nil {
			return jobOutcome{err: err}
		}
		if err := c.do("GET", "/jobs/"+st.ID, nil, &st); err != nil {
			return jobOutcome{err: err}
		}
	}
	if st.Result == nil { // a store hit is done at submit, and the submit reply carries no result
		if err := c.do("GET", "/jobs/"+st.ID, nil, &st); err != nil {
			return jobOutcome{err: err}
		}
	}
	return jobOutcome{status: st, coalesced: coalesced, latency: time.Since(t0).Seconds()}
}

// runServeRep starts a fresh scheduler and listener under scratch,
// drives both clients through their plans, and checks every answer.
func runServeRep(scratch string, plans [][]servePlanJob) (*serveRep, error) {
	dir, err := os.MkdirTemp(scratch, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	sched, err := serve.NewScheduler(serve.Options{Slots: serveSlots, Dir: dir})
	if err != nil {
		return nil, err
	}
	srv, err := serve.Listen("127.0.0.1:0", sched)
	if err != nil {
		sched.Close()
		return nil, err
	}
	rep := &serveRep{}
	// Each client probes the host's speed before its first job and
	// after every job; a job's latency is adjusted by the probes either
	// side of it, and the batch's wall and CPU time by their mean, after
	// taking out the time the probes themselves ran.
	alloc0 := readAllocs()
	cpu0 := cpuSeconds()
	start := time.Now()
	outcomes := make([][]jobOutcome, len(plans))
	probes := make([][]float64, len(plans))
	liveHeapMax := make([]float64, len(plans))
	var wg sync.WaitGroup
	for ci, plan := range plans {
		wg.Add(1)
		go func(ci int, plan []servePlanJob) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 4}
			defer tr.CloseIdleConnections()
			c := &client{base: "http://" + srv.Addr(), hc: &http.Client{Transport: tr}}
			probes[ci] = append(probes[ci], probe())
			for _, j := range plan {
				outcomes[ci] = append(outcomes[ci], c.run(j.Spec))
				probes[ci] = append(probes[ci], probe())
				liveHeapMax[ci] = max(liveHeapMax[ci], liveHeapMiB())
			}
		}(ci, plan)
	}
	wg.Wait()
	rep.wallS = time.Since(start).Seconds()
	rep.cpuS = cpuSeconds() - cpu0
	rep.allocs = readAllocs().since(alloc0)
	srv.Close()
	sched.Close()
	for ci, ps := range probes {
		rep.probes = append(rep.probes, ps...)
		rep.liveHeapPeakMiB = max(rep.liveHeapPeakMiB, liveHeapMax[ci])
	}
	probeS := sum(rep.probes)
	rep.wallS -= probeS
	rep.cpuS -= probeS
	meanProbe := probeS / float64(len(rep.probes))
	rep.wallAdjS = adjust(rep.wallS, meanProbe, meanProbe)
	rep.cpuAdjS = adjust(rep.cpuS, meanProbe, meanProbe)

	saves, bytesWritten := ckptFootprint(filepath.Join(dir, "ckpt"))
	var hits, warm, coalesced, liveSteps, requested, saved float64
	rep.results = make([][]*serve.Result, len(plans))
	for ci, plan := range plans {
		for i, j := range plan {
			o := outcomes[ci][i]
			rep.jobs++
			if o.err != nil {
				rep.results[ci] = append(rep.results[ci], nil)
				continue
			}
			st := o.status
			rep.latencies = append(rep.latencies, adjust(o.latency, probes[ci][i], probes[ci][i+1]))
			rep.results[ci] = append(rep.results[ci], st.Result)
			if st.CacheHit {
				hits++
			}
			if st.WarmStart {
				warm++
			}
			if o.coalesced {
				coalesced++
			}
			liveSteps += float64(st.StepsRun)
			if j.Steps > 0 {
				requested += float64(j.Steps)
				saved += float64(j.Steps - st.StepsRun)
			}
		}
	}
	rep.failures = checkServe(plans, outcomes)
	rep.counters = map[string]float64{
		"serve.jobs":            float64(rep.jobs),
		"serve.cache_hits":      hits,
		"serve.warm_starts":     warm,
		"serve.coalesced":       coalesced,
		"serve.live_steps":      liveSteps,
		"serve.steps_requested": requested,
		"serve.steps_saved":     saved,
		"ckpt.saves":            saves,
		"ckpt.bytes_written":    bytesWritten,
		"ckpt.restores":         warm,
	}
	return rep, nil
}

// ckptFootprint counts checkpoint manifests (one per durable save) and
// the bytes every checkpoint file occupies under root.
func ckptFootprint(root string) (saves, size float64) {
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.HasSuffix(d.Name(), ".manifest") {
			saves++
		}
		if info, err := d.Info(); err == nil {
			size += float64(info.Size())
		}
		return nil
	})
	return saves, size
}

// deterministicKeys are the result series that must reproduce bit for
// bit; stepSeconds is wall-clock time.
func deterministicKeys(r *serve.Result) []string {
	var keys []string
	for k := range r.Series {
		if k != "stepSeconds" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// sameSeries reports whether b's deterministic series start with a's
// (prefix) or equal them (!prefix), bit for bit.
func sameSeries(a, b *serve.Result, prefix bool) bool {
	ka, kb := deterministicKeys(a), deterministicKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i, k := range ka {
		if kb[i] != k {
			return false
		}
		x, y := a.Series[k], b.Series[k]
		if !prefix && len(x) != len(y) {
			return false
		}
		if len(y) < len(x) {
			return false
		}
		// Final-state series (one sample per run, such as Tmax) are
		// recomputed by the extension, not carried over.
		if prefix && len(x) == 1 && len(y) == 1 {
			continue
		}
		for n := range x {
			if math.Float64bits(x[n]) != math.Float64bits(y[n]) {
				return false
			}
		}
	}
	return true
}

// checkServe is the serve_mix oracle: every job finished done with the
// step count it asked for; a repeat was a store hit returning its
// base's result; an extension warm-started and its series begin with
// the base run's.
func checkServe(plans [][]servePlanJob, outcomes [][]jobOutcome) []jobFailure {
	var bad []jobFailure
	for ci, plan := range plans {
		for i, j := range plan {
			o := outcomes[ci][i]
			fail := func(format string, a ...any) {
				bad = append(bad, jobFailure{ci, i, fmt.Sprintf("%s %s: %s", j.Role, j.Kind, fmt.Sprintf(format, a...))})
			}
			if o.err != nil {
				fail("%v", o.err)
				continue
			}
			st := o.status
			if st.State != serve.StateDone || st.Result == nil {
				fail("ended %s without a result: %s", st.State, st.Error)
				continue
			}
			if j.Steps > 0 && st.Result.Steps != j.Steps {
				fail("result has %d steps, want %d", st.Result.Steps, j.Steps)
			}
			if err := checkJobResult(j.Kind, st.Result); err != nil {
				fail("%v", err)
			}
			if j.Base < 0 {
				continue
			}
			base := outcomes[ci][j.Base]
			if base.err != nil || base.status.Result == nil {
				fail("base job %d has no result", j.Base)
				continue
			}
			switch j.Role {
			case "repeat":
				if !st.CacheHit || st.StepsRun != 0 {
					fail("repeat was not a store hit (cacheHit=%v stepsRun=%d)", st.CacheHit, st.StepsRun)
				} else if !sameSeries(base.status.Result, st.Result, false) {
					fail("store hit returned a different result than job %d", j.Base)
				}
			case "extend":
				if !st.WarmStart || st.StepsRun != j.Steps-plan[j.Base].Steps {
					fail("extension did not warm-start from job %d (warmStart=%v stepsRun=%d)", j.Base, st.WarmStart, st.StepsRun)
				} else if !sameSeries(base.status.Result, st.Result, true) {
					fail("warm start does not continue job %d's series", j.Base)
				}
			}
		}
	}
	return bad
}

// checkJobResult applies the physical checks a stored result allows:
// every series value finite, and the kind's own bounds.
func checkJobResult(kind string, r *serve.Result) error {
	for k, xs := range r.Series {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("series %q holds %v", k, x)
			}
		}
	}
	switch kind {
	case "flame":
		for _, t := range r.Series["Tmax"] {
			if t < 300 || t > 3500 {
				return fmt.Errorf("flame Tmax %v outside [300, 3500] K", t)
			}
		}
	case "shock":
		for _, dt := range r.Series["dt"] {
			if dt <= 0 {
				return fmt.Errorf("shock dt %v not positive", dt)
			}
		}
	}
	return nil
}
