package main

import (
	"math"
	"sync"
	"time"
)

// Host-speed adjustment. The benchmark runs on a shared host whose CPU
// speed swings with its neighbours' load: for seconds at a time the
// same code runs up to twice as slowly, and no CPU-time or steal
// counter shows it. On a 2-vCPU VM, the median time of one 40 s flame
// run moved by 28% (interquartile range over median) between
// consecutive 40 s windows of one long run of the same seed.
//
// A fixed probe kernel, owned by the benchmark and independent of the
// program under test, is therefore run next to every sample it adjusts
// (between steps, before and after a set-up, between a client's jobs).
// Its time tracks the host's speed at that moment, and each sample is
// reported at the reference speed, at which the probe takes
// probeNominal:
//
//	adjusted = measured × (probeNominal / probe time around the sample)^probeSensitivity
//
// The program does not slow down as much as the probe: in five-minute
// runs of one seed on that VM, the flame's step times followed the
// probe's slowdown to the power 0.85 and the shock's to the power 0.6
// (the exponents that left the least spread between repetitions).
// probeSensitivity lies between them; with it the repetitions' wall
// times spread 2.5% (flame) and 2.7% (shock), against 18% and 12% as
// measured. On a quiet host adjusted and measured times agree. Work the
// program adds or removes changes the measured time and not the
// probe's, so it shows in the adjusted time. The run's measured times
// and its median probe time are printed on the counters line.

const (
	// probeNominal is the probe's time on an uncontended core of the VM
	// the benchmark was tuned on (Intel Xeon, 2 vCPUs).
	probeNominal     = 200e-6
	probeSensitivity = 0.75
)

var (
	probeMu   sync.Mutex               // serve_mix clients probe from two goroutines
	probeData = make([]float64, 1<<12) // 32 KiB: stays in L1, evicts little of the program's data
	probeSink float64
)

// probe runs the fixed kernel once and returns its wall time in seconds.
// The kernel mixes libm calls, square roots and dependent multiply-adds,
// like the transport and flux code that dominates the simulations.
func probe() float64 {
	probeMu.Lock()
	defer probeMu.Unlock()
	t0 := time.Now()
	s := 0.0
	for r := 0; r < 4; r++ {
		for i, x := range probeData {
			x += float64(i) * 1e-5
			s += math.Exp(-x)*math.Sqrt(x+1) + x*x*0.5
			probeData[i] = s * 1e-9
		}
	}
	probeSink += s
	return time.Since(t0).Seconds()
}

// adjust scales a time measured between two probes to the reference
// speed.
func adjust(measured, before, after float64) float64 {
	return measured * math.Pow(probeNominal*2/(before+after), probeSensitivity)
}
