package linalg

import (
	"fmt"
	"math/cmplx"
)

// CMatrix is a dense, row-major complex matrix.
type CMatrix struct {
	Rows, Cols int
	// Data holds the entries; element (i,j) is Data[i*Cols+j].
	Data []complex128
}

// NewCMatrix returns a zero r×c complex matrix.
func NewCMatrix(r, c int) *CMatrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %d×%d", r, c))
	}
	return &CMatrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// At returns element (i, j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *CMatrix) Clone() *CMatrix {
	c := NewCMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the (non-conjugating) transpose of m.
func (m *CMatrix) T() *CMatrix {
	t := NewCMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// VecTimes returns the row-vector product v·m.
func (m *CMatrix) VecTimes(v []complex128) []complex128 {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("linalg: vec·mat shape mismatch len %d vs %d rows", len(v), m.Rows))
	}
	out := make([]complex128, m.Cols)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, mij := range row {
			out[j] += vi * mij
		}
	}
	return out
}

// MaxAbs returns the largest entry modulus.
func (m *CMatrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

func (m *CMatrix) square() {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: matrix must be square, got %d×%d", m.Rows, m.Cols))
	}
}

// CLU holds a complex LU factorisation with partial pivoting.
type CLU struct {
	lu   *CMatrix
	piv  []int
	sign int
}

// FactorCLU computes the LU factorisation of a square complex matrix with
// partial pivoting (pivot by modulus).
func FactorCLU(a *CMatrix) *CLU {
	a.square()
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		p := k
		mx := cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu.At(i, k)); a > mx {
				mx, p = a, i
			}
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[k*n+j] = lu.Data[k*n+j], lu.Data[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivot := lu.At(k, k)
		if pivot == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Data[i*n+j] -= m * lu.Data[k*n+j]
			}
		}
	}
	return &CLU{lu: lu, piv: piv, sign: sign}
}

// IsSingular reports whether the factored matrix has a zero pivot.
func (f *CLU) IsSingular() bool {
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		if f.lu.At(i, i) == 0 {
			return true
		}
	}
	return false
}

// Det returns the determinant of the factored matrix.
func (f *CLU) Det() complex128 {
	d := complex(float64(f.sign), 0)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves A·x = b for complex x.
func (f *CLU) Solve(b []complex128) ([]complex128, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	if f.IsSingular() {
		return nil, ErrSingular
	}
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		var s complex128
		row := f.lu.Data[i*n : i*n+i]
		for j, l := range row {
			s += l * x[j]
		}
		x[i] -= s
	}
	for i := n - 1; i >= 0; i-- {
		var s complex128
		for j := i + 1; j < n; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] = (x[i] - s) / f.lu.At(i, i)
	}
	return x, nil
}
