package cvode

import (
	"math"
	"testing"
)

// robertson is the classic stiff kinetics test problem.
func robertson(_ float64, y, ydot []float64) {
	ydot[0] = -0.04*y[0] + 1e4*y[1]*y[2]
	ydot[2] = 3e7 * y[1] * y[1]
	ydot[1] = -ydot[0] - ydot[2]
}

// warmSolver returns a Robertson solver with a stored Jacobian and a
// factorization in place.
func warmSolver(t *testing.T) *Solver {
	t.Helper()
	s := New(3, robertson, Options{RelTol: 1e-8, AbsTol: 1e-12})
	s.Init(0, []float64{1, 0, 0})
	if err := s.Integrate(1e-3); err != nil {
		t.Fatal(err)
	}
	s.errWeights()
	return s
}

func TestRefactorAllocFree(t *testing.T) {
	s := warmSolver(t)
	if err := s.refactor(1e-4); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := s.refactor(1e-4); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("refactor allocates %.1f/op", a)
	}
}

// TestRefactorSingularKeepsFactorization: a singular Newton matrix is
// factored into the spare, so the previous factorization (and its
// gamma) stays in force.
func TestRefactorSingularKeepsFactorization(t *testing.T) {
	s := warmSolver(t)
	if err := s.refactor(1e-4); err != nil {
		t.Fatal(err)
	}
	b := []float64{1, -2, 3}
	want := append([]float64(nil), b...)
	s.lu.Solve(want)
	for i := range s.jac.A {
		s.jac.A[i] = math.NaN()
	}
	if err := s.refactor(2e-4); err != ErrSingular {
		t.Fatalf("refactor of a NaN matrix: err = %v, want ErrSingular", err)
	}
	if s.gammaJac != 1e-4 {
		t.Errorf("gammaJac = %v after failed refactor, want 1e-4", s.gammaJac)
	}
	got := append([]float64(nil), b...)
	s.lu.Solve(got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("solve after failed refactor: %v, want %v", got, want)
		}
	}
}

// TestIntegrateAllocFree: once a solver has run, re-initialising and
// integrating again — history pushes, finite-difference Jacobians,
// refactors and Newton solves — allocates nothing.
func TestIntegrateAllocFree(t *testing.T) {
	s := New(3, robertson, Options{RelTol: 1e-8, AbsTol: 1e-12})
	y0 := []float64{1, 0, 0}
	run := func() {
		s.Init(0, y0)
		if err := s.Integrate(1); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if a := testing.AllocsPerRun(10, run); a != 0 {
		t.Errorf("warm Init+Integrate allocates %.1f/op", a)
	}
}
