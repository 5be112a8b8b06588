package euler

import "math"

// Exact Riemann solver for the 1D Euler equations (ideal gas, single
// gamma), after Toro. Given left/right states it finds the star-region
// pressure/velocity by Newton iteration on the pressure function, then
// samples the self-similar solution at x/t = 0 to produce the Godunov
// interface flux. The tracked scalar zeta and tangential velocity ride
// passively with the contact.

// RiemannSolution holds the star-region values of one solved problem.
type RiemannSolution struct {
	PStar, UStar float64
	Iterations   int
	// PowL and PowR hold (PStar/p_K)^((γ-1)/2γ) for a rarefaction on
	// side K (zero on a shock side): the pressure function's last
	// evaluation computes it, and SampleRiemann reuses it for the
	// star-region sound speed.
	PowL, PowR float64
}

// riemannSide holds one side's terms of Toro's pressure function that
// depend only on the state, hoisted out of the Newton loop. Each is the
// expression the pointwise form evaluates, verbatim, so the iterates
// are bit for bit those of evaluating it afresh at every step.
type riemannSide struct {
	p    float64 // p_K
	c    float64 // sqrt(γ p_K / ρ_K)
	a    float64 // shock: 2 / ((γ+1) ρ_K)
	b    float64 // shock: (γ-1)/(γ+1) p_K
	cg   float64 // rarefaction: 2 c / (γ-1)
	rhoC float64 // rarefaction: ρ_K c
}

func newRiemannSide(g Gas, w Primitive) riemannSide {
	c := math.Sqrt(g.Gamma * w.P / w.Rho)
	return riemannSide{
		p:    w.P,
		c:    c,
		a:    2 / ((g.Gamma + 1) * w.Rho),
		b:    (g.Gamma - 1) / (g.Gamma + 1) * w.P,
		cg:   2 * c / (g.Gamma - 1),
		rhoC: w.Rho * c,
	}
}

// fK is Toro's pressure function for one side and its derivative; ex
// and exD are the rarefaction exponents (γ-1)/2γ and -(γ+1)/2γ.
func (k *riemannSide) fK(p, ex, exD float64) (f, df float64) {
	if p > k.p {
		// Shock branch.
		sq := math.Sqrt(k.a / (p + k.b))
		f = (p - k.p) * sq
		df = sq * (1 - (p-k.p)/(2*(p+k.b)))
		return f, df
	}
	// Rarefaction branch.
	pr := p / k.p
	f = k.cg * (math.Pow(pr, ex) - 1)
	df = math.Pow(pr, exD) / k.rhoC
	return f, df
}

// value is fK without the derivative. On the rarefaction branch it also
// returns (p/p_K)^ex, which the sampling step reuses; zero otherwise.
func (k *riemannSide) value(p, ex float64) (f, pw float64) {
	if p > k.p {
		sq := math.Sqrt(k.a / (p + k.b))
		return (p - k.p) * sq, 0
	}
	pw = math.Pow(p/k.p, ex)
	return k.cg * (pw - 1), pw
}

// SolveRiemann finds the star state for left/right primitive states
// (only Rho, U, P matter; V and Zeta are passive).
func SolveRiemann(g Gas, l, r Primitive) RiemannSolution {
	sl, sr := newRiemannSide(g, l), newRiemannSide(g, r)
	cl, cr := sl.c, sr.c
	du := r.U - l.U
	ex := (g.Gamma - 1) / (2 * g.Gamma)
	exD := -(g.Gamma + 1) / (2 * g.Gamma)

	// Initial guess: two-rarefaction approximation, guarded by PVRS.
	p0 := 0.5*(l.P+r.P) - 0.125*du*(l.Rho+r.Rho)*(cl+cr)
	if p0 < 1e-10 {
		p0 = 1e-10
	}

	p := p0
	var it int
	for it = 0; it < 50; it++ {
		flv, dfl := sl.fK(p, ex, exD)
		frv, dfr := sr.fK(p, ex, exD)
		f := flv + frv + du
		df := dfl + dfr
		dp := f / df
		pNew := p - dp
		if pNew < 1e-12 {
			pNew = 1e-12
		}
		if math.Abs(pNew-p) < 1e-12*(pNew+p) {
			p = pNew
			break
		}
		p = pNew
	}
	flv, powL := sl.value(p, ex)
	frv, powR := sr.value(p, ex)
	u := 0.5*(l.U+r.U) + 0.5*(frv-flv)
	return RiemannSolution{PStar: p, UStar: u, Iterations: it + 1, PowL: powL, PowR: powR}
}

// SampleRiemann evaluates the self-similar solution W(x/t = s) of the
// Riemann problem (Toro's sampling procedure). sol must come from
// SolveRiemann on the same states.
func SampleRiemann(g Gas, l, r Primitive, sol RiemannSolution, s float64) Primitive {
	gm1 := g.Gamma - 1
	gp1 := g.Gamma + 1
	if s <= sol.UStar {
		// Left of contact: left wave family, zeta/tangential from left.
		cl := math.Sqrt(g.Gamma * l.P / l.Rho)
		if sol.PStar > l.P {
			// Left shock.
			sl := l.U - cl*math.Sqrt(gp1/(2*g.Gamma)*sol.PStar/l.P+gm1/(2*g.Gamma))
			if s < sl {
				return l
			}
			rho := l.Rho * (sol.PStar/l.P + gm1/gp1) / (gm1/gp1*sol.PStar/l.P + 1)
			return Primitive{Rho: rho, U: sol.UStar, V: l.V, P: sol.PStar, Zeta: l.Zeta}
		}
		// Left rarefaction.
		cstar := cl * sol.PowL
		head := l.U - cl
		tail := sol.UStar - cstar
		switch {
		case s < head:
			return l
		case s > tail:
			rho := l.Rho * math.Pow(sol.PStar/l.P, 1/g.Gamma)
			return Primitive{Rho: rho, U: sol.UStar, V: l.V, P: sol.PStar, Zeta: l.Zeta}
		default:
			// Inside the fan.
			u := 2 / gp1 * (cl + gm1/2*l.U + s)
			c := 2 / gp1 * (cl + gm1/2*(l.U-s))
			rho := l.Rho * math.Pow(c/cl, 2/gm1)
			p := l.P * math.Pow(c/cl, 2*g.Gamma/gm1)
			return Primitive{Rho: rho, U: u, V: l.V, P: p, Zeta: l.Zeta}
		}
	}
	// Right of contact (mirror).
	cr := math.Sqrt(g.Gamma * r.P / r.Rho)
	if sol.PStar > r.P {
		sr := r.U + cr*math.Sqrt(gp1/(2*g.Gamma)*sol.PStar/r.P+gm1/(2*g.Gamma))
		if s > sr {
			return r
		}
		rho := r.Rho * (sol.PStar/r.P + gm1/gp1) / (gm1/gp1*sol.PStar/r.P + 1)
		return Primitive{Rho: rho, U: sol.UStar, V: r.V, P: sol.PStar, Zeta: r.Zeta}
	}
	cstar := cr * sol.PowR
	head := r.U + cr
	tail := sol.UStar + cstar
	switch {
	case s > head:
		return r
	case s < tail:
		rho := r.Rho * math.Pow(sol.PStar/r.P, 1/g.Gamma)
		return Primitive{Rho: rho, U: sol.UStar, V: r.V, P: sol.PStar, Zeta: r.Zeta}
	default:
		u := 2 / gp1 * (-cr + gm1/2*r.U + s)
		c := 2 / gp1 * (cr - gm1/2*(r.U-s))
		rho := r.Rho * math.Pow(c/cr, 2/gm1)
		p := r.P * math.Pow(c/cr, 2*g.Gamma/gm1)
		return Primitive{Rho: rho, U: u, V: r.V, P: p, Zeta: r.Zeta}
	}
}

// GodunovFlux returns the exact-Riemann interface flux for an x-sweep.
func GodunovFlux(g Gas, l, r Primitive) Conserved {
	sol := SolveRiemann(g, l, r)
	w := SampleRiemann(g, l, r, sol, 0)
	return g.FluxX(w)
}
