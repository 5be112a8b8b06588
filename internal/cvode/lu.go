package cvode

import (
	"errors"
	"math"
)

// Dense LU factorization with partial pivoting — the direct linear
// solver behind the modified-Newton iteration (CVODE's CVDense analog).

// ErrSingular is returned when factorization meets a (numerically)
// zero pivot.
var ErrSingular = errors.New("cvode: singular matrix")

// Dense is a square matrix in row-major storage.
type Dense struct {
	N int
	A []float64
}

// NewDense allocates an N x N zero matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, A: make([]float64, n*n)}
}

// At reads entry (i, j).
func (m *Dense) At(i, j int) float64 { return m.A[i*m.N+j] }

// Set writes entry (i, j).
func (m *Dense) Set(i, j int, v float64) { m.A[i*m.N+j] = v }

// LU holds a factorization P A = L U.
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// Factor computes the LU decomposition with partial pivoting,
// overwriting an internal copy (m is untouched).
func Factor(m *Dense) (*LU, error) {
	f := &LU{}
	if err := f.factor(m); err != nil {
		return nil, err
	}
	return f, nil
}

// factor is Factor into f's own storage, grown only when m is larger
// than any matrix f held before. On ErrSingular f's contents are
// undefined.
func (f *LU) factor(m *Dense) error {
	n := m.N
	if cap(f.lu) < n*n {
		f.lu, f.piv = make([]float64, n*n), make([]int, n)
	}
	f.n, f.lu, f.piv = n, f.lu[:n*n], f.piv[:n]
	copy(f.lu, m.A)
	for k := 0; k < n; k++ {
		// Pivot search.
		p := k
		maxAbs := math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(f.lu[i*n+k]); a > maxAbs {
				maxAbs, p = a, i
			}
		}
		f.piv[k] = p
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[k*n+j], f.lu[p*n+j] = f.lu[p*n+j], f.lu[k*n+j]
			}
		}
		inv := 1 / f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] * inv
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			row := f.lu[i*n : i*n+n]
			prow := f.lu[k*n : k*n+n]
			for j := k + 1; j < n; j++ {
				row[j] -= l * prow[j]
			}
		}
	}
	return nil
}

// Solve overwrites b with the solution of A x = b.
func (f *LU) Solve(b []float64) {
	n := f.n
	// Apply permutation and forward-substitute L.
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
		for i := k + 1; i < n; i++ {
			b[i] -= f.lu[i*n+k] * b[k]
		}
	}
	// Back-substitute U.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			b[i] -= f.lu[i*n+j] * b[j]
		}
		b[i] /= f.lu[i*n+i]
	}
}
