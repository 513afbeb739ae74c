package nn

import "fmt"

// Scalar reference GEMM. Production code has one GEMM, matMulBatchInto,
// serving training and inference alike; this is the textbook ikj loop the
// kernel tests compare it against bit for bit.

// MatMul computes a @ b.
func MatMul(a, b *Matrix) (*Matrix, error) {
	out := NewMatrix(a.Rows, b.Cols)
	if err := MatMulInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// MatMulInto computes a @ b into dst, reshaping dst (reusing its backing
// array when large enough). dst must not alias a or b. The kernel walks rows
// of a in ikj order so every inner loop streams over contiguous memory, and
// skips zero multiplicands (common with ReLU activations and one-hot state
// encodings).
func MatMulInto(dst, a, b *Matrix) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("nn: matmul shape mismatch (%dx%d)@(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	dst.Reshape(a.Rows, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
	return nil
}
