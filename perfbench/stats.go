package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
)

// quantile is the linear-interpolation quantile (q in [0,1]) of xs,
// the same estimator numpy and R's default use. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// pick maps every repetition to one of its figures.
func pick[T any](reps []T, f func(T) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMiB is the heap the last garbage collection found live. Unlike
// the heap's size between collections, it does not depend on when the
// collector ran.
func liveHeapMiB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMiB is the process's peak resident set size so far. Linux
// reports ru_maxrss in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocSnap is the cumulative allocation state at one instant.
type allocSnap struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readAllocs() allocSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

func (a allocSnap) since(b allocSnap) allocSnap {
	return allocSnap{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, gcs: a.gcs - b.gcs}
}
