// Package transport evaluates gas-phase transport properties —
// mixture-averaged diffusion coefficients, thermal conductivity, and
// viscosity — from kinetic theory with Lennard-Jones parameters and
// Neufeld collision-integral fits. It is the stand-in for the DRFM
// package the paper wraps into its DRFMComponent: same physical model
// class (Chapman–Enskog with mixture averaging), pure Go.
//
// The per-cell entry points (Evaluate, MixtureDiffusion,
// MixtureConductivity) are the flame's hot path and are organised
// around work that New does once per mechanism:
//
//   - a symmetric pair table: each unordered species pair's binary
//     diffusivity D_jk is computed once per call and read for both
//     (j, k) and (k, j), which is exact because σ_jk, ε_jk and the
//     reduced mass are all built commutatively;
//   - deduplicated collision integrals: pair well depths ε_jk (and, for
//     conductivity, species depths ε_k) are deduplicated by exact float
//     equality, so Ω(1,1) and Ω(2,2) are evaluated once per distinct
//     depth rather than once per pair or species;
//   - hoisted temperature-only factors 2π(k_B T)^3 and Pπ.
//
// Every expression keeps the operation order of the per-pair formulas
// (BinaryDiffusion, Viscosity, Conductivity), so the results are bit
// for bit those of the per-pair evaluation. The per-call tables live on
// the stack; a Model is immutable after New and safe for concurrent use.
package transport

import (
	"math"

	"ccahydro/internal/chem"
)

// Boltzmann constant (J/K) and Avogadro number (1/mol).
const (
	kB = 1.380649e-23
	nA = 6.02214076e23
)

// LJ holds Lennard-Jones parameters: sigma in meters, epsilon/kB in K.
type LJ struct {
	Sigma    float64
	EpsOverK float64
}

// ljData maps species names to Lennard-Jones parameters (from the
// standard Chemkin transport database; sigma given in Angstrom here
// and converted below).
var ljData = map[string]struct {
	sigmaA float64
	epsK   float64
}{
	"H2":   {2.920, 38.0},
	"O2":   {3.458, 107.4},
	"H2O":  {2.605, 572.4},
	"OH":   {2.750, 80.0},
	"H":    {2.050, 145.0},
	"O":    {2.750, 80.0},
	"HO2":  {3.458, 107.4},
	"H2O2": {3.458, 107.4},
	"N2":   {3.621, 97.53},
}

// maxStackSpecies bounds the mechanisms whose per-call pair tables fit
// in fixed stack arrays; larger ones fall back to heap scratch.
const maxStackSpecies = 16

// Model evaluates transport properties for one mechanism. It is
// immutable after New, so one Model serves concurrent callers.
type Model struct {
	mech *chem.Mechanism
	lj   []LJ
	// mass is per-molecule mass in kg.
	mass []float64
	// Precomputed binary pair parameters.
	sigmaJK [][]float64
	epsJK   [][]float64
	mJK     [][]float64 // reduced mass

	// pairs lists every unordered pair j < k; pairEps holds the distinct
	// pair well depths ε_jk that pair.eps indexes.
	pairs   []pair
	pairEps []float64
	// Per-species conductivity terms: specEps[k] indexes ε_k in the
	// distinct depths eps22; visc and area are the species constants
	// π m_k k_B and π σ_k² of Viscosity; eucken is 5/4 R/W_k.
	specEps []int
	eps22   []float64
	visc    []float64
	area    []float64
	eucken  []float64
}

// pair is one unordered species pair of the diffusion table.
type pair struct {
	j, k int
	eps  int     // index into Model.pairEps
	s    float64 // σ_jk
	m    float64 // reduced mass
}

// New builds a transport model; unknown species fall back to N2-like
// parameters.
func New(m *chem.Mechanism) *Model {
	n := m.NumSpecies()
	t := &Model{
		mech: m,
		lj:   make([]LJ, n),
		mass: make([]float64, n),
	}
	for i, sp := range m.Species {
		d, ok := ljData[sp.Name]
		if !ok {
			d = ljData["N2"]
		}
		t.lj[i] = LJ{Sigma: d.sigmaA * 1e-10, EpsOverK: d.epsK}
		t.mass[i] = sp.W / nA
	}
	t.sigmaJK = make([][]float64, n)
	t.epsJK = make([][]float64, n)
	t.mJK = make([][]float64, n)
	for j := 0; j < n; j++ {
		t.sigmaJK[j] = make([]float64, n)
		t.epsJK[j] = make([]float64, n)
		t.mJK[j] = make([]float64, n)
		for k := 0; k < n; k++ {
			t.sigmaJK[j][k] = 0.5 * (t.lj[j].Sigma + t.lj[k].Sigma)
			t.epsJK[j][k] = math.Sqrt(t.lj[j].EpsOverK * t.lj[k].EpsOverK)
			t.mJK[j][k] = t.mass[j] * t.mass[k] / (t.mass[j] + t.mass[k])
		}
	}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			t.pairs = append(t.pairs, pair{
				j: j, k: k,
				eps: distinct(&t.pairEps, t.epsJK[j][k]),
				s:   t.sigmaJK[j][k],
				m:   t.mJK[j][k],
			})
		}
	}
	t.specEps = make([]int, n)
	t.visc = make([]float64, n)
	t.area = make([]float64, n)
	t.eucken = make([]float64, n)
	for k, sp := range m.Species {
		s := t.lj[k].Sigma
		t.specEps[k] = distinct(&t.eps22, t.lj[k].EpsOverK)
		t.visc[k] = math.Pi * t.mass[k] * kB
		t.area[k] = math.Pi * s * s
		t.eucken[k] = 1.25 * chem.R / sp.W
	}
	return t
}

// distinct returns the index of v in *set, appending it if no entry is
// exactly equal.
func distinct(set *[]float64, v float64) int {
	for i, x := range *set {
		if x == v {
			return i
		}
	}
	*set = append(*set, v)
	return len(*set) - 1
}

// Mechanism returns the mechanism the model was built for.
func (t *Model) Mechanism() *chem.Mechanism { return t.mech }

// omega11 is the Neufeld fit to the reduced collision integral
// Omega(1,1)*(T*), used for diffusion.
func omega11(tStar float64) float64 {
	return 1.06036/math.Pow(tStar, 0.15610) +
		0.19300/math.Exp(0.47635*tStar) +
		1.03587/math.Exp(1.52996*tStar) +
		1.76474/math.Exp(3.89411*tStar)
}

// omega22 is the Neufeld fit to Omega(2,2)*(T*), used for viscosity and
// conductivity.
func omega22(tStar float64) float64 {
	return 1.16145/math.Pow(tStar, 0.14874) +
		0.52487/math.Exp(0.77320*tStar) +
		2.16178/math.Exp(2.43787*tStar)
}

// BinaryDiffusion returns D_jk in m^2/s at (T, P) from Chapman–Enskog
// first order:
//
//	D_jk = 3/16 * sqrt(2 pi (kB T)^3 / m_jk) / (P pi sigma_jk^2 Omega11)
func (t *Model) BinaryDiffusion(j, k int, T, P float64) float64 {
	tStar := T / t.epsJK[j][k]
	s := t.sigmaJK[j][k]
	num := 3.0 / 16.0 * math.Sqrt(2*math.Pi*math.Pow(kB*T, 3)/t.mJK[j][k])
	den := P * math.Pi * s * s * omega11(tStar)
	return num / den
}

// Viscosity returns the pure-species dynamic viscosity in Pa s:
//
//	mu_k = 5/16 * sqrt(pi m_k kB T) / (pi sigma_k^2 Omega22)
func (t *Model) Viscosity(k int, T float64) float64 {
	tStar := T / t.lj[k].EpsOverK
	s := t.lj[k].Sigma
	return 5.0 / 16.0 * math.Sqrt(math.Pi*t.mass[k]*kB*T) / (math.Pi * s * s * omega22(tStar))
}

// Conductivity returns the pure-species thermal conductivity in
// W/(m K) using the modified Eucken correction:
//
//	lambda_k = mu_k (cp_k + 5/4 R/W_k)
func (t *Model) Conductivity(k int, T float64) float64 {
	mu := t.Viscosity(k, T)
	sp := &t.mech.Species[k]
	return mu * (sp.CpMass(T) + 1.25*chem.R/sp.W)
}

// MixtureDiffusion fills D (length NumSpecies) with mixture-averaged
// diffusion coefficients in m^2/s:
//
//	D_i = (1 - Y_i) / Σ_{j≠i} X_j / D_ij
//
// For a species that is essentially the whole mixture the self-limit
// D_ii is used. X is mole fractions.
//
// D_ij comes from a per-call pair table: each unordered pair once, with
// Ω(1,1) evaluated once per distinct pair well depth and the T-only
// factors hoisted. The table entries and the sums are bit for bit those
// of BinaryDiffusion summed in the same order.
func (t *Model) MixtureDiffusion(T, P float64, X, Y, D []float64) {
	n := t.mech.NumSpecies()
	var dBuf [maxStackSpecies * maxStackSpecies]float64
	var omBuf [maxStackSpecies * (maxStackSpecies - 1) / 2]float64
	dij, om := dBuf[:], omBuf[:]
	if n > maxStackSpecies {
		dij, om = make([]float64, n*n), make([]float64, len(t.pairEps))
	}
	for e, eps := range t.pairEps {
		om[e] = omega11(T / eps)
	}
	c := 2 * math.Pi * math.Pow(kB*T, 3)
	pPi := P * math.Pi
	for _, p := range t.pairs {
		d := 3.0 / 16.0 * math.Sqrt(c/p.m) / (pPi * p.s * p.s * om[p.eps])
		dij[p.j*n+p.k] = d
		dij[p.k*n+p.j] = d
	}
	for i := 0; i < n; i++ {
		var sum float64
		row := dij[i*n : i*n+n]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sum += X[j] / row[j]
		}
		if sum < 1e-300 {
			D[i] = t.BinaryDiffusion(i, i, T, P)
			continue
		}
		D[i] = (1 - Y[i]) / sum
	}
}

// MixtureConductivity returns the mixture thermal conductivity from the
// Mathur combination rule: lambda = (Σ X λ + 1/Σ(X/λ)) / 2. Species
// with X_k <= 0 are skipped; Ω(2,2) is evaluated once per distinct
// species well depth among the rest, and each λ_k is bit for bit
// Conductivity(k, T).
func (t *Model) MixtureConductivity(T float64, X []float64) float64 {
	var omBuf [maxStackSpecies]float64
	var haveBuf [maxStackSpecies]bool
	om, have := omBuf[:], haveBuf[:]
	if len(t.eps22) > maxStackSpecies {
		om, have = make([]float64, len(t.eps22)), make([]bool, len(t.eps22))
	}
	var s1, s2 float64
	for k := range X {
		if X[k] <= 0 {
			continue
		}
		e := t.specEps[k]
		if !have[e] {
			om[e] = omega22(T / t.eps22[e])
			have[e] = true
		}
		mu := 5.0 / 16.0 * math.Sqrt(t.visc[k]*T) / (t.area[k] * om[e])
		lam := mu * (t.mech.Species[k].CpMass(T) + t.eucken[k])
		s1 += X[k] * lam
		s2 += X[k] / lam
	}
	if s2 == 0 {
		return 0
	}
	return 0.5 * (s1 + 1/s2)
}

// MixtureViscosity returns the mixture viscosity from Wilke's rule.
func (t *Model) MixtureViscosity(T float64, X []float64) float64 {
	n := t.mech.NumSpecies()
	mus := make([]float64, n)
	for k := 0; k < n; k++ {
		mus[k] = t.Viscosity(k, T)
	}
	var out float64
	for i := 0; i < n; i++ {
		if X[i] <= 0 {
			continue
		}
		var denom float64
		for j := 0; j < n; j++ {
			if X[j] <= 0 {
				continue
			}
			wi, wj := t.mech.Species[i].W, t.mech.Species[j].W
			phi := math.Pow(1+math.Sqrt(mus[i]/mus[j])*math.Pow(wj/wi, 0.25), 2) /
				math.Sqrt(8*(1+wi/wj))
			denom += X[j] * phi
		}
		out += X[i] * mus[i] / denom
	}
	return out
}

// Evaluate computes everything the flame solver needs at one state:
// mixture-averaged D_i, conductivity lambda, and density. Y is mass
// fractions; scratch X must have NumSpecies entries.
func (t *Model) Evaluate(T, P float64, Y, X, D []float64) (lambda, rho float64) {
	t.mech.MoleFractions(Y, X)
	t.MixtureDiffusion(T, P, X, Y, D)
	lambda = t.MixtureConductivity(T, X)
	rho = t.mech.Density(P, T, Y)
	return lambda, rho
}

// MaxDiffusivity returns the largest of the thermal diffusivity
// λ/(ρ c_p) and the species diffusivities D_i at the state — the
// coefficient that bounds an explicit diffusion step. Its work vectors
// live on the stack, so concurrent callers need no scratch.
func (t *Model) MaxDiffusivity(T, P float64, Y []float64) float64 {
	n := t.mech.NumSpecies()
	var xBuf, dBuf [maxStackSpecies]float64
	X, D := xBuf[:], dBuf[:]
	if n > maxStackSpecies {
		X, D = make([]float64, n), make([]float64, n)
	}
	X, D = X[:n], D[:n]
	lam, rho := t.Evaluate(T, P, Y, X, D)
	maxD := lam / (rho * t.mech.CpMass(T, Y))
	for _, d := range D {
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}
