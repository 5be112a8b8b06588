package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"
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
