package nn

import "fmt"

// Batched inference path. Forward (network.go) is the training path: each
// layer caches its input for Backward and owns the scratch its output lives
// in, so two goroutines can never share a network. ForwardBatch is the
// read-only counterpart: it touches nothing but the layer weights and keeps
// all intermediate activations in caller-supplied scratch. Both compute the
// dense products with the same row-blocked GEMM, matMulBatchInto, so one pass
// over the weight matrix serves a block of samples. One network can
// therefore serve any number of concurrent ForwardBatch callers, each with
// its own dst and scratch.

// InferScratch holds the intermediate activation buffers for ForwardBatch.
// The zero value is ready to use; buffers grow on demand and are reused
// across calls. An InferScratch must not be shared between concurrent calls.
type InferScratch struct {
	a, b Matrix
}

// ForwardBatch evaluates the network on a batch (rows of x are samples),
// writing the output into dst. Unlike Forward it does not mutate the network
// or any layer scratch: it is safe to call concurrently from many goroutines
// on one network — each with its own dst and scratch — provided nothing is
// training the network at the same time.
//
// Results are bit-identical to Forward on the same batch: both run the same
// kernels.
func (n *Network) ForwardBatch(dst *Matrix, s *InferScratch, x *Matrix) error {
	cur := x
	bufs := [2]*Matrix{&s.a, &s.b}
	idx := 0
	next := func(li int) *Matrix {
		if li == len(n.Layers)-1 {
			// The last layer writes straight into dst, saving a full
			// output-sized copy on large batches.
			return dst
		}
		m := bufs[idx]
		idx ^= 1
		return m
	}
	for li, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			out := next(li)
			if err := matMulBatchInto(out, cur, layer.W.Value); err != nil {
				return fmt.Errorf("nn: batch layer %d: %w", li, err)
			}
			if err := addRowVectorFast(out, layer.B.Value); err != nil {
				return fmt.Errorf("nn: batch layer %d: %w", li, err)
			}
			cur = out
		case *ReLU:
			out := next(li)
			out.Reshape(cur.Rows, cur.Cols)
			batchReLU(out.Data, cur.Data)
			cur = out
		default:
			return fmt.Errorf("nn: batch forward cannot evaluate layer type %T", l)
		}
	}
	if cur != dst {
		dst.Reshape(cur.Rows, cur.Cols)
		copy(dst.Data, cur.Data)
	}
	return nil
}

// matMulBatchInto computes a @ b into dst, reshaping dst (reusing its
// backing array when large enough). It is the one production GEMM: the
// training forward and backward passes and ForwardBatch all run on it. It
// processes eight or four rows of a at a time so each streamed row of b is
// loaded once per block of output rows and the inner loop keeps independent
// accumulator streams in flight. On amd64 with AVX the blocks are computed
// by block8AVX/block4AVX (gemm_amd64.s), which additionally vectorize four
// output columns per instruction. Per-output-element accumulation runs in
// ascending k from +0 with a separate multiply and add rounding per step
// (never FMA: the scalar loops convert each product explicitly), so for
// finite operands the result is bit-identical to the textbook ikj loop (the
// single-row kernel skips every individual zero multiplicand, the blocked
// paths do not — a difference observable only with Inf/NaN in b). dst must
// not alias a or b.
func matMulBatchInto(dst, a, b *Matrix) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("nn: matmul shape mismatch (%dx%d)@(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	dst.Reshape(a.Rows, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	k, n := a.Cols, b.Cols
	cols4 := 0
	if useAVX && k > 0 {
		// The AVX microkernels cover columns [0, cols4); they vectorize
		// across independent output columns with separate mul and add
		// roundings, so the bits match the scalar loops below.
		cols4 = n &^ 3
	}
	i := 0
	if cols4 > 0 {
		for ; i+8 <= a.Rows; i += 8 {
			block8AVX(&dst.Data[i*n], &a.Data[i*k], &b.Data[0], k, n, cols4)
			tailCols(dst, a, b, i, 8, cols4)
		}
	}
	for ; i+4 <= a.Rows; i += 4 {
		if cols4 > 0 {
			block4AVX(&dst.Data[i*n], &a.Data[i*k], &b.Data[0], k, n, cols4)
			tailCols(dst, a, b, i, 4, cols4)
			continue
		}
		a0 := a.Data[(i+0)*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		a2 := a.Data[(i+2)*k : (i+3)*k]
		a3 := a.Data[(i+3)*k : (i+4)*k]
		o0 := dst.Data[(i+0)*n : (i+1)*n]
		o1 := dst.Data[(i+1)*n : (i+2)*n]
		o2 := dst.Data[(i+2)*n : (i+3)*n]
		o3 := dst.Data[(i+3)*n : (i+4)*n]
		for kk := 0; kk < k; kk++ {
			v0, v1, v2, v3 := a0[kk], a1[kk], a2[kk], a3[kk]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				o0[j] += float64(v0 * bv)
				o1[j] += float64(v1 * bv)
				o2[j] += float64(v2 * bv)
				o3[j] += float64(v3 * bv)
			}
		}
	}
	for ; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
	return nil
}

// batchReLU writes dst[i] = max(src[i], 0), vectorized where available. The
// AVX path uses VMAXPD with +0 as the tie/NaN-winning operand, which matches
// the scalar branch bit for bit (negatives, -0 and NaN all become +0).
func batchReLU(dst, src []float64) {
	i := 0
	if useAVX {
		if n4 := len(src) &^ 3; n4 > 0 {
			vecMaxZero(&dst[0], &src[0], n4)
			i = n4
		}
	}
	for ; i < len(src); i++ {
		if v := src[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// addRowVectorFast is Matrix.AddRowVector with the bulk of each row handled
// by the AVX kernel; element-wise adds vectorize without any bit change.
func addRowVectorFast(m, b *Matrix) error {
	if !useAVX || m.Rows == 0 || m.Cols&^3 == 0 {
		return m.AddRowVector(b)
	}
	if b.Rows != 1 || b.Cols != m.Cols {
		return fmt.Errorf("nn: bias shape (%dx%d) does not match %d cols", b.Rows, b.Cols, m.Cols)
	}
	cols4 := m.Cols &^ 3
	vecAddRows(&m.Data[0], &b.Data[0], m.Rows, m.Cols, cols4)
	for i := 0; cols4 < m.Cols && i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := cols4; j < m.Cols; j++ {
			row[j] += b.Data[j]
		}
	}
	return nil
}

// tailCols accumulates the columns [cols4, n) the vector kernels left
// untouched, for `rows` output rows starting at row i. Runs k ascending per
// element, so it composes with the kernels without changing any bits.
func tailCols(dst, a, b *Matrix, i, rows, cols4 int) {
	k, n := a.Cols, b.Cols
	if cols4 >= n {
		return
	}
	for r := i; r < i+rows; r++ {
		arow := a.Data[r*k : (r+1)*k]
		orow := dst.Data[r*n : (r+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j := cols4; j < n; j++ {
				orow[j] += float64(av * brow[j])
			}
		}
	}
}
