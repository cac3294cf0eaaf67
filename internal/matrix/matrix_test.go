package matrix

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf256"
)

func TestNewShapeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 3) did not panic")
		}
	}()
	New(0, 3)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]byte{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.RowView(1)[0] != 3 {
		t.Fatalf("entry (1,0) = %d, want 3", m.RowView(1)[0])
	}
	if _, err := FromRows([][]byte{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows must be rejected")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(5)
	if !id.IsIdentity() {
		t.Fatal("Identity(5) is not the identity")
	}
	m, _ := FromRows([][]byte{{1, 0}, {1, 1}})
	if m.IsIdentity() {
		t.Fatal("non-identity matrix reported as identity")
	}
}

func TestMulByIdentity(t *testing.T) {
	m, _ := FromRows([][]byte{{9, 8, 7}, {6, 5, 4}})
	got, err := m.Mul(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("m * I != m")
	}
}

func TestMulShapeMismatch(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("mismatched shapes must error")
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]byte{{1, 2}, {3, 4}})
	b, _ := FromRows([][]byte{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want00 := gf256.Mul(1, 5) ^ gf256.Mul(2, 7)
	if got.RowView(0)[0] != want00 {
		t.Fatalf("product (0,0) = %#x, want %#x", got.RowView(0)[0], want00)
	}
}

func TestMulVec(t *testing.T) {
	m, _ := FromRows([][]byte{{1, 2, 3}, {4, 5, 6}})
	v := []byte{7, 8, 9}
	dst := make([]byte, 2)
	if err := m.MulVec(v, dst); err != nil {
		t.Fatal(err)
	}
	want0 := gf256.Mul(1, 7) ^ gf256.Mul(2, 8) ^ gf256.Mul(3, 9)
	if dst[0] != want0 {
		t.Fatalf("MulVec[0] = %#x, want %#x", dst[0], want0)
	}
	if err := m.MulVec([]byte{1}, dst); err == nil {
		t.Fatal("short vector must error")
	}
	if err := m.MulVec(v, make([]byte, 1)); err == nil {
		t.Fatal("short destination must error")
	}
}

func TestInvertIdentity(t *testing.T) {
	inv, err := Identity(4).Invert()
	if err != nil {
		t.Fatal(err)
	}
	if !inv.IsIdentity() {
		t.Fatal("inverse of identity is not identity")
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		m := randomInvertible(rng, n)
		inv, err := m.Invert()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prod, err := m.Mul(inv)
		if err != nil {
			t.Fatal(err)
		}
		if !prod.IsIdentity() {
			t.Fatalf("trial %d: m * m^-1 != I:\n%v", trial, prod)
		}
	}
}

// randomInvertible builds a random invertible matrix as a product of an
// identity perturbed by random elementary row operations.
func randomInvertible(rng *rand.Rand, n int) *Matrix {
	m := Identity(n)
	for op := 0; op < 4*n; op++ {
		r1 := rng.Intn(n)
		r2 := rng.Intn(n)
		c := byte(rng.Intn(255) + 1)
		if r1 == r2 {
			// Scale a row by a non-zero constant.
			gf256.MulSlice(c, m.data[r1], m.data[r1])
		} else {
			// Add a multiple of one row to another.
			gf256.MulSliceXor(c, m.data[r1], m.data[r2])
		}
	}
	return m
}

func TestInvertSingular(t *testing.T) {
	m, _ := FromRows([][]byte{{1, 2}, {1, 2}})
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	zero := New(3, 3)
	if _, err := zero.Invert(); err != ErrSingular {
		t.Fatalf("zero matrix: expected ErrSingular, got %v", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	if _, err := New(2, 3).Invert(); err == nil {
		t.Fatal("non-square inversion must error")
	}
}

func TestVandermondeRowsIndependent(t *testing.T) {
	// Any k full rows of the Vandermonde matrix must be invertible.
	const total, data = 14, 10
	v, err := Vandermonde(total, data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		rows := rng.Perm(total)[:data]
		sub, err := v.SelectRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("rows %v should be independent: %v", rows, err)
		}
	}
}

func TestVandermondeTooLarge(t *testing.T) {
	if _, err := Vandermonde(257, 3); err == nil {
		t.Fatal("Vandermonde beyond field order must error")
	}
}

func TestCauchyAllSquareSubmatricesSmall(t *testing.T) {
	// For a small Cauchy matrix, exhaustively verify that every 2x2
	// submatrix is invertible (the defining property).
	c, err := Cauchy(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r1 := 0; r1 < 4; r1++ {
		for r2 := r1 + 1; r2 < 4; r2++ {
			for c1 := 0; c1 < 4; c1++ {
				for c2 := c1 + 1; c2 < 4; c2++ {
					det := gf256.Mul(c.RowView(r1)[c1], c.RowView(r2)[c2]) ^ gf256.Mul(c.RowView(r1)[c2], c.RowView(r2)[c1])
					if det == 0 {
						t.Fatalf("2x2 submatrix (%d,%d)x(%d,%d) singular", r1, r2, c1, c2)
					}
				}
			}
		}
	}
}

func TestCauchyTooLarge(t *testing.T) {
	if _, err := Cauchy(200, 100); err == nil {
		t.Fatal("Cauchy beyond field order must error")
	}
}

func TestSystematicVandermonde(t *testing.T) {
	g, err := SystematicVandermonde(14, 10)
	if err != nil {
		t.Fatal(err)
	}
	top, _ := g.SubMatrix(0, 0, 10, 10)
	if !top.IsIdentity() {
		t.Fatal("systematic generator top block is not identity")
	}
	// Any 10 rows must be invertible (MDS property).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		rows := rng.Perm(14)[:10]
		sub, _ := g.SelectRows(rows)
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("systematic generator rows %v singular: %v", rows, err)
		}
	}
}

func TestSystematicCauchy(t *testing.T) {
	g, err := SystematicCauchy(14, 10)
	if err != nil {
		t.Fatal(err)
	}
	top, _ := g.SubMatrix(0, 0, 10, 10)
	if !top.IsIdentity() {
		t.Fatal("systematic Cauchy top block is not identity")
	}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		rows := rng.Perm(14)[:10]
		sub, _ := g.SelectRows(rows)
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("systematic Cauchy rows %v singular: %v", rows, err)
		}
	}
}

func TestSystematicShapeValidation(t *testing.T) {
	if _, err := SystematicVandermonde(5, 5); err == nil {
		t.Fatal("total == data must error")
	}
	if _, err := SystematicCauchy(3, 0); err == nil {
		t.Fatal("data == 0 must error")
	}
}

func TestSelectRows(t *testing.T) {
	m, _ := FromRows([][]byte{{1}, {2}, {3}})
	sel, err := m.SelectRows([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel.RowView(0)[0] != 3 || sel.RowView(1)[0] != 1 {
		t.Fatal("SelectRows picked wrong rows")
	}
	if _, err := m.SelectRows([]int{5}); err == nil {
		t.Fatal("out-of-range row must error")
	}
	if _, err := m.SelectRows(nil); err == nil {
		t.Fatal("empty selection must error")
	}
}

func TestSubMatrixValidation(t *testing.T) {
	m := New(3, 3)
	if _, err := m.SubMatrix(0, 0, 4, 3); err == nil {
		t.Fatal("out-of-range submatrix must error")
	}
	if _, err := m.SubMatrix(2, 2, 2, 3); err == nil {
		t.Fatal("empty submatrix must error")
	}
}

func TestAugment(t *testing.T) {
	a, _ := FromRows([][]byte{{1}, {2}})
	b, _ := FromRows([][]byte{{3}, {4}})
	got, err := a.Augment(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cols() != 2 || got.RowView(0)[1] != 3 {
		t.Fatal("Augment wrong layout")
	}
	c := New(3, 1)
	if _, err := a.Augment(c); err == nil {
		t.Fatal("row mismatch must error")
	}
}

func TestStringRendering(t *testing.T) {
	m, _ := FromRows([][]byte{{0, 255}})
	if got, want := m.String(), "00 ff\n"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestMulVecMatchesMatrixMulProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(6)
		m := New(rows, cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				m.set(r, c, byte(rng.Intn(256)))
			}
		}
		v := make([]byte, cols)
		for i := range v {
			v[i] = byte(rng.Intn(256))
		}
		dst := make([]byte, rows)
		if err := m.MulVec(v, dst); err != nil {
			return false
		}
		colMat := New(cols, 1)
		for i, x := range v {
			colMat.set(i, 0, x)
		}
		prod, err := m.Mul(colMat)
		if err != nil {
			return false
		}
		for r := 0; r < rows; r++ {
			if prod.RowView(r)[0] != dst[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlatBackingInvariant(t *testing.T) {
	m, err := Vandermonde(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.SwapRows(1, 4)
	m.SwapRows(2, 2)
	for r := 0; r < m.Rows(); r++ {
		view := m.RowView(r)
		for c := 0; c < m.Cols(); c++ {
			if view[c] != m.Row(r)[c] {
				t.Fatalf("RowView out of sync at (%d,%d) after SwapRows", r, c)
			}
		}
	}
	// RowView aliases: a set must show through an existing view.
	view := m.RowView(3)
	m.set(3, 2, 0xAB)
	if view[2] != 0xAB {
		t.Fatal("RowView does not alias the matrix")
	}
}

func TestMulVecAfterSwapRows(t *testing.T) {
	m, err := Cauchy(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := []byte{1, 2, 3, 4, 5}
	want := make([]byte, 5)
	if err := m.MulVec(v, want); err != nil {
		t.Fatal(err)
	}
	m.SwapRows(0, 4)
	got := make([]byte, 5)
	if err := m.MulVec(v, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != want[4] || got[4] != want[0] {
		t.Fatalf("MulVec after SwapRows: got %v, want rows 0/4 of %v exchanged", got, want)
	}
	for _, r := range []int{1, 2, 3} {
		if got[r] != want[r] {
			t.Fatalf("MulVec row %d changed by unrelated SwapRows", r)
		}
	}
}

// FromRows builds a matrix from explicit row data. All rows must have the
// same length. The rows are copied.
func FromRows(rows [][]byte) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("matrix: FromRows requires non-empty data")
	}
	m := New(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.cols {
			return nil, fmt.Errorf("matrix: row %d has %d columns, want %d", r, len(row), m.cols)
		}
		copy(m.data[r], row)
	}
	return m, nil
}

// set assigns the entry at (r, c).
func (m *Matrix) set(r, c int, v byte) { m.data[r][c] = v }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// MulVec computes m * v for a column vector v of length Cols, writing the
// result into dst of length Rows. It walks the flat backing row by row,
// so it sees exactly what the row-major invariant promises.
func (m *Matrix) MulVec(v, dst []byte) error {
	if len(v) != m.cols {
		return fmt.Errorf("matrix: MulVec input length %d, want %d", len(v), m.cols)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("matrix: MulVec output length %d, want %d", len(dst), m.rows)
	}
	flat := m.backing
	for r, off := 0, 0; r < m.rows; r, off = r+1, off+m.cols {
		var acc byte
		for i, c := range flat[off : off+m.cols] {
			acc ^= gf256.Mul(c, v[i])
		}
		dst[r] = acc
	}
	return nil
}

// IsIdentity reports whether m is square and equal to the identity.
func (m *Matrix) IsIdentity() bool {
	if m.rows != m.cols {
		return false
	}
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if m.data[r][c] != want {
				return false
			}
		}
	}
	return true
}
