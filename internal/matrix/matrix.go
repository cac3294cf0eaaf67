// Package matrix implements dense matrix algebra over GF(2^8) as needed
// by Reed-Solomon style erasure codes: construction of Vandermonde and
// Cauchy matrices, multiplication, augmentation, and Gauss-Jordan
// inversion.
//
// Matrices are small (at most 256x256 for any valid code), so the
// implementation favours clarity over blocking or vectorisation; the hot
// path of the codecs operates on coefficient rows extracted from these
// matrices, not on the matrices themselves.
package matrix

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/gf256"
)

// ErrSingular is returned when a matrix that must be invertible is not.
var ErrSingular = errors.New("matrix: singular")

// Matrix is a rows x cols matrix over GF(2^8). The zero value is not
// usable; construct with New or the shape-specific constructors.
//
// Storage is one flat row-major []byte; data holds per-row views into
// it. The invariant that row r occupies backing[r*cols:(r+1)*cols] is
// maintained by every mutator (SwapRows exchanges row contents, not
// slice headers), so hot paths such as RowView index the flat
// backing directly instead of chasing per-row slice headers.
type Matrix struct {
	rows    int
	cols    int
	backing []byte   // row-major flat storage
	data    [][]byte // data[r][c], views into backing
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	backing := make([]byte, rows*cols)
	data := make([][]byte, rows)
	for r := range data {
		data[r] = backing[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return &Matrix{rows: rows, cols: cols, backing: backing, data: data}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i][i] = 1
	}
	return m
}

// Vandermonde returns the rows x cols matrix with entry (r, c) equal to
// r^c in GF(2^8), using row indices as evaluation points. Any cols rows
// of this matrix form a Vandermonde matrix with distinct evaluation
// points and are therefore linearly independent, which is the property
// systematic Reed-Solomon construction relies on. rows must not exceed
// 256 (the number of distinct field elements).
func Vandermonde(rows, cols int) (*Matrix, error) {
	if rows > gf256.Order {
		return nil, fmt.Errorf("matrix: Vandermonde rows %d exceeds field order %d", rows, gf256.Order)
	}
	m := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.data[r][c] = gf256.Pow(byte(r), c)
		}
	}
	return m, nil
}

// Cauchy returns the rows x cols Cauchy matrix with entry (r, c) equal to
// 1/(x_r + y_c) where x_r = r + cols and y_c = c. Every square submatrix
// of a Cauchy matrix is invertible. rows+cols must not exceed 256.
func Cauchy(rows, cols int) (*Matrix, error) {
	if rows+cols > gf256.Order {
		return nil, fmt.Errorf("matrix: Cauchy rows+cols %d exceeds field order %d", rows+cols, gf256.Order)
	}
	m := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.data[r][c] = gf256.Inv(byte(r+cols) ^ byte(c))
		}
	}
	return m, nil
}

// At returns the entry at (r, c).
func (m *Matrix) At(r, c int) byte { return m.data[r][c] }

// Set assigns the entry at (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.data[r][c] = v }

// Row returns a copy of row r.
func (m *Matrix) Row(r int) []byte {
	out := make([]byte, m.cols)
	copy(out, m.data[r])
	return out
}

// RowView returns row r as a view into the matrix's flat backing —
// no copy. The view aliases the matrix: it is invalidated by any
// mutation and must not be written through. Decode hot paths use it to
// feed coefficient rows straight into the gf256 bulk kernels without
// per-repair allocations.
func (m *Matrix) RowView(r int) []byte {
	return m.backing[r*m.cols : (r+1)*m.cols : (r+1)*m.cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	for r := range m.data {
		copy(out.data[r], m.data[r])
	}
	return out
}

// Equal reports whether two matrices have identical shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if o == nil || m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for r := range m.data {
		for c := range m.data[r] {
			if m.data[r][c] != o.data[r][c] {
				return false
			}
		}
	}
	return true
}

// Mul returns the matrix product m * o.
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.cols != o.rows {
		return nil, fmt.Errorf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	out := New(m.rows, o.cols)
	for r := 0; r < m.rows; r++ {
		for c := 0; c < o.cols; c++ {
			var acc byte
			for i := 0; i < m.cols; i++ {
				acc ^= gf256.Mul(m.data[r][i], o.data[i][c])
			}
			out.data[r][c] = acc
		}
	}
	return out, nil
}

// Augment returns the matrix [m | o] formed by horizontal concatenation.
func (m *Matrix) Augment(o *Matrix) (*Matrix, error) {
	if m.rows != o.rows {
		return nil, fmt.Errorf("matrix: cannot augment %d rows with %d rows", m.rows, o.rows)
	}
	out := New(m.rows, m.cols+o.cols)
	for r := 0; r < m.rows; r++ {
		copy(out.data[r][:m.cols], m.data[r])
		copy(out.data[r][m.cols:], o.data[r])
	}
	return out, nil
}

// SubMatrix returns the rectangle [rmin, rmax) x [cmin, cmax) as a copy.
func (m *Matrix) SubMatrix(rmin, cmin, rmax, cmax int) (*Matrix, error) {
	if rmin < 0 || cmin < 0 || rmax > m.rows || cmax > m.cols || rmin >= rmax || cmin >= cmax {
		return nil, fmt.Errorf("matrix: invalid submatrix [%d:%d, %d:%d) of %dx%d", rmin, rmax, cmin, cmax, m.rows, m.cols)
	}
	out := New(rmax-rmin, cmax-cmin)
	for r := rmin; r < rmax; r++ {
		copy(out.data[r-rmin], m.data[r][cmin:cmax])
	}
	return out, nil
}

// SelectRows returns a new matrix consisting of the given rows of m, in
// the order given. Row indices may repeat.
func (m *Matrix) SelectRows(rows []int) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("matrix: SelectRows requires at least one row")
	}
	out := New(len(rows), m.cols)
	for i, r := range rows {
		if r < 0 || r >= m.rows {
			return nil, fmt.Errorf("matrix: row index %d out of range [0, %d)", r, m.rows)
		}
		copy(out.data[i], m.data[r])
	}
	return out, nil
}

// SwapRows exchanges rows r1 and r2 in place. Contents are swapped, not
// slice headers, preserving the row-major flat-backing invariant.
func (m *Matrix) SwapRows(r1, r2 int) {
	if r1 == r2 {
		return
	}
	a, b := m.data[r1], m.data[r2]
	for c := range a {
		a[c], b[c] = b[c], a[c]
	}
}

// Invert returns the inverse of a square matrix, or ErrSingular if no
// inverse exists. m is not modified.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert non-square %dx%d", m.rows, m.cols)
	}
	n := m.rows
	work, err := m.Augment(Identity(n))
	if err != nil {
		return nil, err
	}
	if err := work.gaussJordan(); err != nil {
		return nil, err
	}
	return work.SubMatrix(0, n, n, 2*n)
}

// gaussJordan reduces the left square half of an n x 2n augmented matrix
// to the identity in place, applying the same operations to the right
// half. Returns ErrSingular if the left half has no inverse.
func (m *Matrix) gaussJordan() error {
	n := m.rows
	for col := 0; col < n; col++ {
		// Find a pivot at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if m.data[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return ErrSingular
		}
		if pivot != col {
			m.SwapRows(pivot, col)
		}
		// Scale the pivot row so the pivot becomes 1.
		if p := m.data[col][col]; p != 1 {
			inv := gf256.Inv(p)
			gf256.MulSlice(inv, m.data[col], m.data[col])
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := m.data[r][col]; f != 0 {
				gf256.MulSliceXor(f, m.data[col], m.data[r])
			}
		}
	}
	return nil
}

// String renders the matrix as rows of two-digit hex values, one row per
// line, for debugging and golden tests.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%02x", m.data[r][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SystematicVandermonde returns the (total x data) generator matrix whose
// top data x data block is the identity, derived from a Vandermonde
// matrix V as V * inv(V_top). Any data rows of the result remain linearly
// independent, so the generated code is MDS under full-row selection.
func SystematicVandermonde(total, data int) (*Matrix, error) {
	if data <= 0 || total <= data {
		return nil, fmt.Errorf("matrix: invalid systematic shape total=%d data=%d", total, data)
	}
	v, err := Vandermonde(total, data)
	if err != nil {
		return nil, err
	}
	top, err := v.SubMatrix(0, 0, data, data)
	if err != nil {
		return nil, err
	}
	topInv, err := top.Invert()
	if err != nil {
		return nil, err
	}
	return v.Mul(topInv)
}

// SystematicCauchy returns the (total x data) generator matrix consisting
// of the identity stacked on a Cauchy matrix. Every square submatrix of a
// Cauchy matrix is invertible, so any data rows of the result are
// linearly independent.
func SystematicCauchy(total, data int) (*Matrix, error) {
	if data <= 0 || total <= data {
		return nil, fmt.Errorf("matrix: invalid systematic shape total=%d data=%d", total, data)
	}
	c, err := Cauchy(total-data, data)
	if err != nil {
		return nil, err
	}
	return Identity(data).stack(c)
}

// stack returns the vertical concatenation [m; o].
func (m *Matrix) stack(o *Matrix) (*Matrix, error) {
	if m.cols != o.cols {
		return nil, fmt.Errorf("matrix: cannot stack %d cols on %d cols", o.cols, m.cols)
	}
	out := New(m.rows+o.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		copy(out.data[r], m.data[r])
	}
	for r := 0; r < o.rows; r++ {
		copy(out.data[m.rows+r], o.data[r])
	}
	return out, nil
}
