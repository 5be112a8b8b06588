package transport

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ccahydro/internal/chem"
)

func almost(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

func TestViscosityKnownValues(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	// N2 at 300 K: mu ≈ 1.78e-5 Pa s.
	if mu := tr.Viscosity(m.SpeciesIndex("N2"), 300); !almost(mu, 1.78e-5, 0.05) {
		t.Errorf("mu_N2(300) = %v", mu)
	}
	// O2 at 300 K: mu ≈ 2.07e-5 Pa s.
	if mu := tr.Viscosity(m.SpeciesIndex("O2"), 300); !almost(mu, 2.07e-5, 0.06) {
		t.Errorf("mu_O2(300) = %v", mu)
	}
	// H2 at 300 K: mu ≈ 0.89e-5 Pa s.
	if mu := tr.Viscosity(m.SpeciesIndex("H2"), 300); !almost(mu, 0.89e-5, 0.06) {
		t.Errorf("mu_H2(300) = %v", mu)
	}
}

func TestConductivityKnownValues(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	// N2 at 300 K: lambda ≈ 0.026 W/m/K.
	if lam := tr.Conductivity(m.SpeciesIndex("N2"), 300); !almost(lam, 0.026, 0.10) {
		t.Errorf("lambda_N2(300) = %v", lam)
	}
	// H2 at 300 K: lambda ≈ 0.18 W/m/K (very conductive).
	if lam := tr.Conductivity(m.SpeciesIndex("H2"), 300); !almost(lam, 0.18, 0.15) {
		t.Errorf("lambda_H2(300) = %v", lam)
	}
}

func TestBinaryDiffusionKnownValue(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	// H2-N2 at 300 K, 1 atm: D ≈ 0.78 cm^2/s = 7.8e-5 m^2/s.
	d := tr.BinaryDiffusion(m.SpeciesIndex("H2"), m.SpeciesIndex("N2"), 300, chem.PAtm)
	if !almost(d, 7.8e-5, 0.12) {
		t.Errorf("D_H2,N2(300) = %v", d)
	}
	// O2-N2 at 300 K: D ≈ 0.21 cm^2/s.
	d2 := tr.BinaryDiffusion(m.SpeciesIndex("O2"), m.SpeciesIndex("N2"), 300, chem.PAtm)
	if !almost(d2, 2.1e-5, 0.12) {
		t.Errorf("D_O2,N2(300) = %v", d2)
	}
}

func TestBinaryDiffusionSymmetry(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	f := func(jRaw, kRaw uint8, tRaw uint16) bool {
		j := int(jRaw) % m.NumSpecies()
		k := int(kRaw) % m.NumSpecies()
		T := 300 + float64(tRaw%2200)
		djk := tr.BinaryDiffusion(j, k, T, chem.PAtm)
		dkj := tr.BinaryDiffusion(k, j, T, chem.PAtm)
		// Exact: MixtureDiffusion's pair table stores D_jk once for both
		// orders.
		return math.Float64bits(djk) == math.Float64bits(dkj) && djk > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDiffusionScalings(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	j, k := m.SpeciesIndex("O2"), m.SpeciesIndex("N2")
	// D ~ 1/P at fixed T.
	d1 := tr.BinaryDiffusion(j, k, 400, chem.PAtm)
	d2 := tr.BinaryDiffusion(j, k, 400, 2*chem.PAtm)
	if !almost(d1, 2*d2, 1e-12) {
		t.Errorf("pressure scaling: %v vs %v", d1, 2*d2)
	}
	// D grows faster than T^1.5 (collision integral decreases).
	d300 := tr.BinaryDiffusion(j, k, 300, chem.PAtm)
	d600 := tr.BinaryDiffusion(j, k, 600, chem.PAtm)
	if d600/d300 < math.Pow(2, 1.5) {
		t.Errorf("temperature scaling = %v, want > %v", d600/d300, math.Pow(2, 1.5))
	}
}

func TestMixtureDiffusionAirLike(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	Y := m.StoichiometricH2Air()
	n := m.NumSpecies()
	X := make([]float64, n)
	D := make([]float64, n)
	m.MoleFractions(Y, X)
	tr.MixtureDiffusion(300, chem.PAtm, X, Y, D)
	// H2 diffuses much faster than O2 in the mixture.
	if D[m.SpeciesIndex("H2")] < 2*D[m.SpeciesIndex("O2")] {
		t.Errorf("D_H2 = %v, D_O2 = %v", D[m.SpeciesIndex("H2")], D[m.SpeciesIndex("O2")])
	}
	for i, d := range D {
		if d <= 0 || math.IsNaN(d) {
			t.Errorf("D[%d] = %v", i, d)
		}
	}
}

func TestMixtureDiffusionSelfLimit(t *testing.T) {
	// Pure N2: the mixture formula degenerates; self-diffusion is used.
	m := chem.H2Air()
	tr := New(m)
	n := m.NumSpecies()
	Y := make([]float64, n)
	Y[m.SpeciesIndex("N2")] = 1
	X := make([]float64, n)
	D := make([]float64, n)
	m.MoleFractions(Y, X)
	tr.MixtureDiffusion(300, chem.PAtm, X, Y, D)
	dn2 := D[m.SpeciesIndex("N2")]
	if dn2 <= 0 || math.IsNaN(dn2) {
		t.Errorf("self-limit D_N2 = %v", dn2)
	}
}

func TestMixtureConductivityBounds(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	Y := m.StoichiometricH2Air()
	X := make([]float64, m.NumSpecies())
	m.MoleFractions(Y, X)
	lam := tr.MixtureConductivity(300, X)
	// Must lie between the N2 and H2 pure values.
	lamN2 := tr.Conductivity(m.SpeciesIndex("N2"), 300)
	lamH2 := tr.Conductivity(m.SpeciesIndex("H2"), 300)
	if lam < lamN2 || lam > lamH2 {
		t.Errorf("lambda_mix = %v outside [%v, %v]", lam, lamN2, lamH2)
	}
}

func TestMixtureViscosityPureLimit(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	n := m.NumSpecies()
	X := make([]float64, n)
	X[m.SpeciesIndex("N2")] = 1
	muMix := tr.MixtureViscosity(300, X)
	muN2 := tr.Viscosity(m.SpeciesIndex("N2"), 300)
	if !almost(muMix, muN2, 1e-10) {
		t.Errorf("pure-limit viscosity = %v, want %v", muMix, muN2)
	}
}

func TestEvaluate(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	Y := m.StoichiometricH2Air()
	n := m.NumSpecies()
	X := make([]float64, n)
	D := make([]float64, n)
	lam, rho := tr.Evaluate(1000, chem.PAtm, Y, X, D)
	if lam <= 0 || rho <= 0 {
		t.Errorf("lambda = %v, rho = %v", lam, rho)
	}
	if !almost(rho, m.Density(chem.PAtm, 1000, Y), 1e-12) {
		t.Error("rho inconsistent with mechanism density")
	}
	// Thermal diffusivity alpha = lam/(rho cp) should be same order as
	// species diffusivities (Lewis ~ 1 for N2-dominated mixtures).
	alpha := lam / (rho * m.CpMass(1000, Y))
	dn2 := D[m.SpeciesIndex("N2")]
	if alpha/dn2 < 0.3 || alpha/dn2 > 3.5 {
		t.Errorf("Lewis-like ratio = %v", alpha/dn2)
	}
}

// Property: transport coefficients are positive, finite, and increase
// with temperature over flame-relevant ranges.
func TestTransportMonotoneInT(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(m.NumSpecies())
		T := 300 + 2000*rng.Float64()
		mu1, mu2 := tr.Viscosity(k, T), tr.Viscosity(k, T+100)
		lam1, lam2 := tr.Conductivity(k, T), tr.Conductivity(k, T+100)
		return mu2 > mu1 && mu1 > 0 && lam2 > lam1 && lam1 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

var mechanisms = []string{"h2air", "h2air-lite", "co-h2-air"}

// refMixtureDiffusion is the per-pair evaluation the pair table
// replaces: BinaryDiffusion for every ordered pair, summed in the same
// order.
func refMixtureDiffusion(tr *Model, T, P float64, X, Y, D []float64) {
	for i := range D {
		var sum float64
		for j := range D {
			if j == i {
				continue
			}
			sum += X[j] / tr.BinaryDiffusion(i, j, T, P)
		}
		if sum < 1e-300 {
			D[i] = tr.BinaryDiffusion(i, i, T, P)
			continue
		}
		D[i] = (1 - Y[i]) / sum
	}
}

// refMixtureConductivity is the Mathur rule over per-species
// Conductivity calls.
func refMixtureConductivity(tr *Model, T float64, X []float64) float64 {
	var s1, s2 float64
	for k := range X {
		if X[k] <= 0 {
			continue
		}
		lam := tr.Conductivity(k, T)
		s1 += X[k] * lam
		s2 += X[k] / lam
	}
	if s2 == 0 {
		return 0
	}
	return 0.5 * (s1 + 1/s2)
}

// randomState draws T in [150, 3650] K, P in [0.5, 1.5] atm and mass
// fractions with random zeros; every 25th state is a pure species.
func randomState(rng *rand.Rand, n, s int, Y []float64) (T, P float64) {
	T = 150 + 3500*rng.Float64()
	P = chem.PAtm * (0.5 + rng.Float64())
	for k := range Y {
		Y[k] = 0
	}
	if s%25 == 0 {
		Y[rng.Intn(n)] = 1
		return T, P
	}
	var sum float64
	for k := range Y {
		if rng.Intn(3) != 0 {
			Y[k] = rng.Float64()
			sum += Y[k]
		}
	}
	if sum == 0 {
		Y[rng.Intn(n)], sum = 1, 1
	}
	for k := range Y {
		Y[k] /= sum
	}
	return T, P
}

// TestMixturePropertiesBitExact holds the pair-table evaluation to the
// per-pair reference bit for bit (NaN equal to NaN) on random states of
// every mechanism.
func TestMixturePropertiesBitExact(t *testing.T) {
	for _, name := range mechanisms {
		m, err := chem.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := New(m)
		n := m.NumSpecies()
		Y, X := make([]float64, n), make([]float64, n)
		D, want := make([]float64, n), make([]float64, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for s := 0; s < 20000; s++ {
			T, P := randomState(rng, n, s, Y)
			m.MoleFractions(Y, X)
			tr.MixtureDiffusion(T, P, X, Y, D)
			refMixtureDiffusion(tr, T, P, X, Y, want)
			for i := range D {
				if math.Float64bits(D[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: T=%v P=%v Y=%v: D[%d] = %v, per-pair %v", name, T, P, Y, i, D[i], want[i])
				}
			}
			lam, wantLam := tr.MixtureConductivity(T, X), refMixtureConductivity(tr, T, X)
			if math.Float64bits(lam) != math.Float64bits(wantLam) {
				t.Fatalf("%s: T=%v X=%v: lambda = %v, per-species %v", name, T, X, lam, wantLam)
			}
		}
	}
}

func TestEvaluateAllocFree(t *testing.T) {
	for _, name := range mechanisms {
		m, _ := chem.ByName(name)
		tr := New(m)
		n := m.NumSpecies()
		Y := make([]float64, n)
		Y[0], Y[n-1] = 0.1, 0.9
		X, D := make([]float64, n), make([]float64, n)
		if a := testing.AllocsPerRun(100, func() { tr.Evaluate(1500, chem.PAtm, Y, X, D) }); a != 0 {
			t.Errorf("%s: Evaluate allocates %.1f/op", name, a)
		}
		if a := testing.AllocsPerRun(100, func() { tr.MaxDiffusivity(1500, chem.PAtm, Y) }); a != 0 {
			t.Errorf("%s: MaxDiffusivity allocates %.1f/op", name, a)
		}
	}
}

func TestMaxDiffusivity(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	Y := m.StoichiometricH2Air()
	n := m.NumSpecies()
	X, D := make([]float64, n), make([]float64, n)
	lam, rho := tr.Evaluate(1000, chem.PAtm, Y, X, D)
	want := lam / (rho * m.CpMass(1000, Y))
	for _, d := range D {
		want = math.Max(want, d)
	}
	if got := tr.MaxDiffusivity(1000, chem.PAtm, Y); got != want {
		t.Errorf("MaxDiffusivity = %v, want %v", got, want)
	}
}

// BenchmarkEvaluate measures one cell's transport evaluation (the
// flame's per-cell, per-stage call) for each mechanism.
func BenchmarkEvaluate(b *testing.B) {
	for _, name := range mechanisms {
		m, _ := chem.ByName(name)
		tr := New(m)
		n := m.NumSpecies()
		Y, X, D := make([]float64, n), make([]float64, n), make([]float64, n)
		randomState(rand.New(rand.NewSource(1)), n, 1, Y)
		b.Run(fmt.Sprintf("%s-%dsp", name, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.Evaluate(1500, chem.PAtm, Y, X, D)
			}
		})
	}
}
