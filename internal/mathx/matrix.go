package mathx

import (
	"fmt"
	"math"
)

// Mat is a small dense row-major matrix. It backs the NDT Newton step,
// and the tracker's fixed-size UKF algebra follows its evaluation
// order; dimensions there are at most 7x7, so the implementation
// favors clarity over blocking.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zero matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic("mathx: non-positive matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatFromRows builds a matrix from row slices, which must be equal length.
func MatFromRows(rows ...[]float64) *Mat {
	if len(rows) == 0 {
		panic("mathx: MatFromRows with no rows")
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("mathx: ragged rows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// AddAt increments element (i, j) by v.
func (m *Mat) AddAt(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Add returns m + o.
func (m *Mat) Add(o *Mat) *Mat {
	m.checkSameShape(o)
	out := m.Clone()
	for i, v := range o.Data {
		out.Data[i] += v
	}
	return out
}

// Sub returns m - o.
func (m *Mat) Sub(o *Mat) *Mat {
	m.checkSameShape(o)
	out := m.Clone()
	for i, v := range o.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns m * s.
func (m *Mat) Scale(s float64) *Mat {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Mul returns the matrix product m * o.
func (m *Mat) Mul(o *Mat) *Mat {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("mathx: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := NewMat(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < o.Cols; j++ {
				out.Data[i*out.Cols+j] += a * o.At(k, j)
			}
		}
	}
	return out
}

// T returns the transpose of m.
func (m *Mat) T() *Mat {
	out := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MulVec returns m * v for a column vector v (len == Cols).
func (m *Mat) MulVec(v []float64) []float64 {
	if len(v) != m.Cols {
		panic("mathx: MulVec length mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range v {
			s += row[j] * x
		}
		out[i] = s
	}
	return out
}

// Cholesky computes the lower-triangular L with L*Lᵀ = m for a symmetric
// positive-definite matrix. It returns an error when the matrix is not
// positive definite (a frequent runtime hazard in UKF covariance updates,
// handled by jittering the diagonal at the call site).
func (m *Mat) Cholesky() (*Mat, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("mathx: Cholesky of non-square %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	l := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("mathx: matrix not positive definite at pivot %d (%g)", i, sum)
				}
				l.Set(i, j, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// Inverse computes the inverse via Gauss-Jordan with partial pivoting.
// It returns an error for singular matrices.
func (m *Mat) Inverse() (*Mat, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("mathx: Inverse of non-square %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Pivot selection.
		pivot := col
		maxAbs := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		if maxAbs < 1e-14 {
			return nil, fmt.Errorf("mathx: singular matrix at column %d", col)
		}
		if pivot != col {
			a.swapRows(pivot, col)
			inv.swapRows(pivot, col)
		}
		// Normalize pivot row.
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.AddAt(r, j, -f*a.At(col, j))
				inv.AddAt(r, j, -f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

// SolveVec solves m * x = b via the Gauss-Jordan inverse; for the small
// systems in this codebase that is accurate enough.
func (m *Mat) SolveVec(b []float64) ([]float64, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.MulVec(b), nil
}

func (m *Mat) swapRows(i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func (m *Mat) checkSameShape(o *Mat) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("mathx: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Symmetrize averages m with its transpose in place, a standard fix for
// covariance drift in Kalman-style updates.
func (m *Mat) Symmetrize() {
	if m.Rows != m.Cols {
		panic("mathx: Symmetrize of non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// AddDiag adds v to every diagonal element in place (covariance jitter).
func (m *Mat) AddDiag(v float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.AddAt(i, i, v)
	}
}
