// Package nn is a small, dependency-free neural-network library built for
// the paper's DQN: row-major float64 matrices, fully-connected layers, ReLU
// activations, mean-squared-error loss, backpropagation, SGD and Adam
// optimizers, and binary model serialization.
//
// Go has no mature deep-learning framework in its standard ecosystem, so
// this package implements exactly the subset the paper's 4-layer
// fully-connected DQN needs, with numerical-gradient checks in the tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps a row vector (1 x n) around a copy of x.
func FromSlice(x []float64) *Matrix {
	m := NewMatrix(1, len(x))
	copy(m.Data, x)
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns row r as a fresh slice.
func (m *Matrix) Row(r int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[r*m.Cols:(r+1)*m.Cols])
	return out
}

// RowView returns row r as a subslice sharing m's backing array. Mutations
// through the view are visible in m, and the view is invalidated by anything
// that reallocates m's Data.
func (m *Matrix) RowView(r int) []float64 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Reshape resizes m to rows x cols in place, reusing the backing array when
// it has capacity. Element values are unspecified afterwards.
func (m *Matrix) Reshape(rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
}

// Transpose returns m transposed.
func (m *Matrix) Transpose() *Matrix {
	out := new(Matrix)
	transposeInto(out, m)
	return out
}

// AddRowVector adds a 1 x Cols bias row to every row of m in place.
func (m *Matrix) AddRowVector(b *Matrix) error {
	if b.Rows != 1 || b.Cols != m.Cols {
		return fmt.Errorf("nn: bias shape (%dx%d) does not match %d cols", b.Rows, b.Cols, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += b.Data[j]
		}
	}
	return nil
}

// Scale multiplies every element in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// XavierInit fills m with Glorot-uniform values for a layer with the given
// fan-in and fan-out.
func (m *Matrix) XavierInit(fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// MaxAbsDiff returns the largest element-wise absolute difference between
// two equally-shaped matrices.
func MaxAbsDiff(a, b *Matrix) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("nn: shape mismatch (%dx%d) vs (%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	var d float64
	for i := range a.Data {
		if v := math.Abs(a.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d, nil
}
