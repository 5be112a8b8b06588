package main

import (
	"regexp"
	"sort"

	"ccahydro/internal/cca"
	"ccahydro/internal/obs"
)

// Exclusive per-layer time from the framework's port-call histograms.
//
// With an observability session attached, every call crossing a
// uses→provides wire lands in port_call_seconds{instance,port,method},
// labelled by the using instance and its uses port. The connect graph
// names the provider behind each (instance, port), so a component's
// inclusive time is the time of the wires it provides, and its self
// time is that minus the time of the wires it uses itself:
//
//	self(X) = Σ wires provided by X − Σ wires used by X
//
// The run instance provides no wire; its inclusive time is the go-port
// wall time the benchmark measures around Framework.Go. The identity
// holds exactly when every call a component makes through its uses
// ports happens inside one of its own provided calls on the same
// goroutine, so traced runs pin the exec pool to one worker: with a
// wider pool, calls fanned out to workers overlap and their summed
// time exceeds the caller's wall time.

// classLayer maps component classes to the benchmark's layer names.
// Classes not listed fold into components.other.
var classLayer = map[string]string{
	"DRFMComponent":            "transport",
	"ThermoChemistry":          "chem",
	"CvodeComponent":           "cvode",
	"ExplicitIntegrator":       "rkc",
	"States":                   "euler.states",
	"GodunovFlux":              "euler.flux",
	"EFMFlux":                  "euler.flux",
	"HLLCFlux":                 "euler.flux",
	"DiffusionPhysics":         "components.diffusion",
	"MaxDiffCoeffEvaluator":    "components.maxdiff",
	"InviscidFlux":             "components.inviscid",
	"ExplicitIntegratorRK2":    "components.rk2",
	"BoundaryConditions":       "components.bc",
	"CharacteristicQuantities": "components.chars",
	"ImplicitIntegrator":       "components.implicit",
	"ErrorEstAndRegrid":        "amr.regrid",
	"RDDriver":                 "components.driver",
	"ShockDriver":              "components.driver",
}

// timedLayers are the layers whose self time is reported; callLayers
// additionally report their inbound port-call count.
var (
	timedLayers = []string{
		"transport", "chem", "cvode", "rkc", "euler.states", "euler.flux",
		"components.diffusion", "components.maxdiff", "components.inviscid",
		"components.rk2", "components.bc", "components.chars",
		"components.implicit", "components.driver", "components.other",
		"amr.regrid",
	}
	callLayers = []string{"transport", "chem", "cvode", "rkc", "euler.states", "euler.flux", "amr.regrid"}
)

func layerOf(class string) string {
	if l, ok := classLayer[class]; ok {
		return l
	}
	return "components.other"
}

// wireKey identifies one uses port of one instance.
type wireKey struct{ user, port string }

// layerReport is one traced run's attribution.
type layerReport struct {
	selfS     map[string]float64 // layer -> exclusive seconds (rank-summed)
	calls     map[string]float64 // layer -> inbound port calls (rank-summed)
	portCalls float64            // every recorded port call
}

var portCallLabels = regexp.MustCompile(`^` + obs.PortCallBase + `\{instance="([^"]*)",port="([^"]*)",method="([^"]*)"\}$`)

// attribute computes per-layer self time. conns and classOf describe
// the assembly (identical on every rank); runInstance is the driver and
// goSeconds its rank-summed go-port time.
func attribute(snap obs.Snapshot, conns []cca.Connection, classOf map[string]string, runInstance string, goSeconds float64) *layerReport {
	provider := map[wireKey]string{}
	for _, c := range conns {
		provider[wireKey{c.User, c.UsesPort}] = c.Provider
	}
	provided := map[string]float64{runInstance: goSeconds}
	used := map[string]float64{}
	rep := &layerReport{selfS: map[string]float64{}, calls: map[string]float64{}}
	for _, h := range snap.Histograms {
		m := portCallLabels.FindStringSubmatch(h.Name)
		if m == nil {
			continue
		}
		prov, ok := provider[wireKey{m[1], m[2]}]
		if !ok {
			continue
		}
		provided[prov] += h.SumSeconds
		used[m[1]] += h.SumSeconds
		rep.calls[layerOf(classOf[prov])] += float64(h.Count)
		rep.portCalls += float64(h.Count)
	}
	insts := make([]string, 0, len(classOf))
	for in := range classOf {
		insts = append(insts, in)
	}
	sort.Strings(insts)
	for _, in := range insts {
		rep.selfS[layerOf(classOf[in])] += provided[in] - used[in]
	}
	return rep
}

// totalSelf is the summed self time of every layer.
func (r *layerReport) totalSelf() float64 {
	t := 0.0
	for _, v := range r.selfS {
		t += v
	}
	return t
}
