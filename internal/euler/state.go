// Package euler implements the 2D compressible Euler equations with an
// advected interface-tracking scalar zeta, solved by a second-order
// Godunov (MUSCL) finite-volume method with an exact Riemann solver,
// plus Pullin's Equilibrium Flux Method (EFM) as the drop-in
// alternative flux for strong shocks — the paper's shock–interface
// assembly (GodunovFlux, EFMFlux, States, ExplicitIntegratorRK2).
//
// Conserved components, in order: rho, rho*u, rho*v, rho*E, rho*zeta
// (E is specific total energy). The gas is ideal with constant gamma;
// the Air/Freon density contrast of the paper's test case is carried by
// the initial density and the zeta tracker.
package euler

import "math"

// Conserved component indices.
const (
	IRho = iota
	IMx
	IMy
	IE
	IZeta
	NumComp
)

// Gas holds the (single-gamma) ideal-gas parameters.
type Gas struct {
	Gamma float64
}

// AirGamma is the default specific-heat ratio.
const AirGamma = 1.4

// Primitive is a pointwise primitive state.
type Primitive struct {
	Rho, U, V, P, Zeta float64
}

// Conserved is a pointwise conserved state.
type Conserved [NumComp]float64

// ToConserved converts primitive to conserved variables.
func (g Gas) ToConserved(w Primitive) Conserved {
	e := w.P/(g.Gamma-1) + 0.5*w.Rho*(w.U*w.U+w.V*w.V)
	return Conserved{w.Rho, w.Rho * w.U, w.Rho * w.V, e, w.Rho * w.Zeta}
}

// ToPrimitive converts conserved to primitive variables. A density or
// pressure floor (1e-12) guards against transient undershoots.
func (g Gas) ToPrimitive(u Conserved) Primitive {
	rho := u[IRho]
	if rho < 1e-12 {
		rho = 1e-12
	}
	inv := 1 / rho
	vx := u[IMx] * inv
	vy := u[IMy] * inv
	p := (g.Gamma - 1) * (u[IE] - 0.5*rho*(vx*vx+vy*vy))
	if p < 1e-12 {
		p = 1e-12
	}
	return Primitive{Rho: rho, U: vx, V: vy, P: p, Zeta: u[IZeta] * inv}
}

// SoundSpeed returns c = sqrt(gamma p / rho).
func (g Gas) SoundSpeed(w Primitive) float64 {
	return math.Sqrt(g.Gamma * w.P / w.Rho)
}

// FluxX returns the exact x-direction flux of a state.
func (g Gas) FluxX(w Primitive) Conserved {
	e := w.P/(g.Gamma-1) + 0.5*w.Rho*(w.U*w.U+w.V*w.V)
	return Conserved{
		w.Rho * w.U,
		w.Rho*w.U*w.U + w.P,
		w.Rho * w.U * w.V,
		(e + w.P) * w.U,
		w.Rho * w.Zeta * w.U,
	}
}

// MaxWaveSpeed returns |u| + c and |v| + c for CFL control.
func (g Gas) MaxWaveSpeed(w Primitive) (sx, sy float64) {
	c := g.SoundSpeed(w)
	return math.Abs(w.U) + c, math.Abs(w.V) + c
}

// swapUV exchanges the roles of u and v so y-direction sweeps can reuse
// the x-flux machinery.
func swapUV(w Primitive) Primitive {
	w.U, w.V = w.V, w.U
	return w
}
