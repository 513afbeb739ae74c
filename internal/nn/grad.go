package nn

// Training-path kernels that ForwardBatch does not need: the sparse
// loss-gradient products, transposed GEMM operands, and the element-wise
// gradient add. Like the GEMM they round every product and every add
// separately (explicit float64 conversions forbid FMA fusion on any
// architecture) and accumulate each element in ascending order from +0.

// sparseDensity is the largest nonzero fraction (1/sparseDensity) of a
// gradient that still takes the sparse path. A Q-learning loss gradient has
// one nonzero per row; ReLU-gated hidden gradients are about half dense and
// run on the GEMM instead. Either path gives the same bits.
const sparseDensity = 4

// gradEntry is one nonzero of a gradient matrix.
type gradEntry struct {
	row, col int
	v        float64
}

// sparseGrad is a gradient matrix held as its nonzero entries: byRow in
// row-major order, byCol stably sorted by column (rows still ascending).
// Both orders are what the dense loops would visit after skipping zeros,
// which is what keeps the sparse products bit-identical to them.
type sparseGrad struct {
	byRow   []gradEntry
	byCol   []gradEntry
	colNext []int     // counting-sort cursors, len cols+1
	acc     []float64 // one column of dW
}

// gather records g's nonzeros and reports whether there are at most limit
// of them. On false the receiver holds no usable entries.
func (s *sparseGrad) gather(g *Matrix, limit int) bool {
	s.byRow = s.byRow[:0]
	for i := 0; i < g.Rows; i++ {
		for c, v := range g.RowView(i) {
			if v != 0 {
				if len(s.byRow) == limit {
					return false
				}
				s.byRow = append(s.byRow, gradEntry{i, c, v})
			}
		}
	}
	s.sortByCol(g.Cols)
	return true
}

// sortByCol fills byCol with a stable counting sort of byRow by column.
func (s *sparseGrad) sortByCol(cols int) {
	if cap(s.colNext) < cols+1 {
		s.colNext = make([]int, cols+1)
	}
	next := s.colNext[:cols+1]
	clear(next)
	for _, e := range s.byRow {
		next[e.col+1]++
	}
	for c := 1; c <= cols; c++ {
		next[c] += next[c-1]
	}
	if cap(s.byCol) < len(s.byRow) {
		s.byCol = make([]gradEntry, len(s.byRow))
	}
	s.byCol = s.byCol[:len(s.byRow)]
	for _, e := range s.byRow {
		s.byCol[next[e.col]] = e
		next[e.col]++
	}
}

// weightGrad adds x^T @ g into grad (in x out), touching only the columns
// that hold a nonzero. Each touched element is summed over its column's
// rows in ascending order from +0, then added into grad once, exactly as the
// dense dW-then-add does; every skipped product is an exact zero, and a
// skipped add of +0 leaves grad unchanged because a gradient accumulated
// from +0 is never -0 under round-to-nearest.
func (s *sparseGrad) weightGrad(grad, x *Matrix) {
	in, out := x.Cols, grad.Cols
	if cap(s.acc) < in {
		s.acc = make([]float64, in)
	}
	acc := s.acc[:in]
	for lo := 0; lo < len(s.byCol); {
		c := s.byCol[lo].col
		clear(acc)
		hi := lo
		for ; hi < len(s.byCol) && s.byCol[hi].col == c; hi++ {
			e := s.byCol[hi]
			for j, xv := range x.RowView(e.row) {
				acc[j] += float64(xv * e.v)
			}
		}
		for j, a := range acc {
			grad.Data[j*out+c] += a
		}
		lo = hi
	}
}

// biasGrad adds the column sums of g into grad in ascending row order.
func (s *sparseGrad) biasGrad(grad []float64) {
	for _, e := range s.byRow {
		grad[e.col] += e.v
	}
}

// inputGrad writes g @ w^T into dx (rows x in): each row is the sum, in
// ascending column order from +0, of its nonzeros times the matching
// column of w.
func (s *sparseGrad) inputGrad(dx, w *Matrix) {
	clear(dx.Data)
	for _, e := range s.byRow {
		row := dx.RowView(e.row)
		for j := range row {
			row[j] += float64(e.v * w.Data[j*w.Cols+e.col])
		}
	}
}

// transposeInto writes m^T into dst, reshaping dst.
func transposeInto(dst, m *Matrix) {
	dst.Reshape(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.RowView(i) {
			dst.Data[j*m.Rows+i] = v
		}
	}
}

// addInto adds src into dst element-wise (one rounding per element, so the
// vector and scalar paths agree bit for bit). len(src) must equal len(dst).
func addInto(dst, src []float64) {
	i := 0
	if useAVX {
		if n4 := len(src) &^ 3; n4 > 0 {
			vecAddRows(&dst[0], &src[0], 1, n4, n4)
			i = n4
		}
	}
	for ; i < len(src); i++ {
		dst[i] += src[i]
	}
}

// maskPositive writes dst[i] = g[i] where mask[i] > 0 and +0 elsewhere. The
// AVX path ANDs g with a VCMPPD greater-than mask, which passes g's bits
// unchanged or clears them to +0, exactly like the scalar branch.
func maskPositive(dst, g, mask []float64) {
	i := 0
	if useAVX {
		if n4 := len(g) &^ 3; n4 > 0 {
			vecMaskPositive(&dst[0], &g[0], &mask[0], n4)
			i = n4
		}
	}
	for ; i < len(g); i++ {
		if mask[i] > 0 {
			dst[i] = g[i]
		} else {
			dst[i] = 0
		}
	}
}
