package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"ccahydro/internal/cca"
)

// Committed field fingerprint of the flame: a hash over the bit
// patterns of T and every Y_k on every cell of every level after a
// short multi-level run. The golden value was captured before the
// transport pair-table rewrite and pins the whole flame hot path
// (transport, chemistry/CVODE, RKC, regrid) bit for bit. Unlike the
// scenario-vs-recipe goldens, which run the same kernels on both sides,
// this catches any change to a floating-point result.
//
// If a change is meant to move results (fitted transport kernels, a
// different integrator), regenerate the constants deliberately and say
// so in the change log; never to make a failure go away.
const (
	flameFingerprint      = 0xfa1c343b838f2345
	flameFingerprintCells = 12800
)

func flameFingerprintParams() []Param {
	return []Param{
		{"grace", "nx", "16"}, {"grace", "ny", "16"},
		{"grace", "maxLevels", "2"},
		{"driver", "steps", "6"}, {"driver", "dt", "1e-7"},
		{"driver", "regridEvery", "2"},
	}
}

// fingerprintCells hashes a global cell map in (level, comp, j, i)
// order: FNV-1a over each key followed by math.Float64bits of its value.
func fingerprintCells(cells map[cellKey]float64) uint64 {
	keys := make([]cellKey, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.level != kb.level {
			return ka.level < kb.level
		}
		if ka.comp != kb.comp {
			return ka.comp < kb.comp
		}
		if ka.j != kb.j {
			return ka.j < kb.j
		}
		return ka.i < kb.i
	})
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range keys {
		for _, v := range [...]int{k.level, k.comp, k.i, k.j} {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(cells[k]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestFlameFieldFingerprint runs the flame serially and on 4 SCMD ranks
// and demands the committed fingerprint from both.
func TestFlameFieldFingerprint(t *testing.T) {
	for _, ranks := range []int{1, 4} {
		cells := runCkptGlobal(t, ranks, assembleFlame(flameFingerprintParams()), "phi", CheckpointOptions{Dir: t.TempDir()})
		got := fingerprintCells(cells)
		if got != flameFingerprint || len(cells) != flameFingerprintCells {
			t.Errorf("ranks=%d: fingerprint %#x over %d cells, want %#x over %d",
				ranks, got, len(cells), uint64(flameFingerprint), flameFingerprintCells)
		}
	}
}

// Committed field fingerprints of the shock–interface run: every
// conserved component on every cell of every level after a short
// two-level RK2 run, for each flux component and each limiter of the
// States component. Captured before the line-granular States/Flux
// ports replaced the per-face ones; they pin reconstruction, the three
// Riemann fluxes, regrid and the halo path bit for bit.
var shockFingerprints = map[[2]string]struct {
	hash  uint64
	cells int
}{
	{"GodunovFlux", "mc"}:     {0x4ad81bf52c87f53c, 11520},
	{"GodunovFlux", "minmod"}: {0x7129af24d55b6251, 11520},
	{"GodunovFlux", "first"}:  {0x91d1f568b09e872b, 11840},
	{"EFMFlux", "mc"}:         {0x56611dc5b2e1afd8, 11520},
	{"EFMFlux", "minmod"}:     {0x0e209d524a25d60b, 11520},
	{"EFMFlux", "first"}:      {0x24b510d40a1ddd66, 11840},
	{"HLLCFlux", "mc"}:        {0xd4edc8c0f2e320e4, 11520},
	{"HLLCFlux", "minmod"}:    {0xbb20aa89b5be85a8, 11520},
	{"HLLCFlux", "first"}:     {0x4682f7747926943f, 11840},
}

// TestShockFieldFingerprint runs every flux × limiter combination
// serially and on 4 SCMD ranks and demands the committed fingerprint
// from each.
func TestShockFieldFingerprint(t *testing.T) {
	for _, flux := range []string{"GodunovFlux", "EFMFlux", "HLLCFlux"} {
		for _, lim := range []string{"mc", "minmod", "first"} {
			params := []Param{
				{"grace", "nx", "32"}, {"grace", "ny", "16"},
				{"grace", "maxLevels", "2"},
				{"driver", "maxSteps", "12"}, {"driver", "regridEvery", "4"},
				{"states", "limiter", lim},
			}
			assemble := func(f *cca.Framework) error { return AssembleShockInterface(f, flux, params...) }
			for _, ranks := range []int{1, 4} {
				cells := runCkptGlobal(t, ranks, assemble, "U", CheckpointOptions{Dir: t.TempDir()})
				got, want := fingerprintCells(cells), shockFingerprints[[2]string{flux, lim}]
				if got != want.hash || len(cells) != want.cells {
					t.Errorf("%s/%s ranks=%d: fingerprint %#x over %d values, want %#x over %d",
						flux, lim, ranks, got, len(cells), want.hash, want.cells)
				}
			}
		}
	}
}
