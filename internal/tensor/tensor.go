// Package tensor provides the minimal dense linear algebra used by the
// pure-Go training substrate (internal/nn): row-major float64 matrices
// with the handful of operations an MLP's forward and backward passes
// need. It is deliberately small — clarity over BLAS tricks — since
// the real-training path exists to validate learning behaviour, not to
// chase throughput.
package tensor

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zero matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %d values cannot fill %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a view of row r (shared storage).
func (m *Matrix) Row(r int) []float64 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// MatMul returns a·b.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulAT returns aᵀ·b without materializing the transpose.
func MatMulAT(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulAT shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		arow, brow := a.Row(r), b.Row(r)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulBT returns a·bᵀ without materializing the transpose.
func MatMulBT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulBT shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			sum := 0.0
			for k, av := range arow {
				sum += av * brow[k]
			}
			orow[j] = sum
		}
	}
	return out
}

// AddRow adds vector v to every row of m in place.
func (m *Matrix) AddRow(v []float64) {
	if len(v) != m.Cols {
		panic("tensor: AddRow length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += v[c]
		}
	}
}

// ColSums returns the per-column sums.
func (m *Matrix) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			out[c] += v
		}
	}
	return out
}

// AddScaled adds f·other to m in place.
func (m *Matrix) AddScaled(other *Matrix, f float64) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: AddScaled shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += f * other.Data[i]
	}
}
