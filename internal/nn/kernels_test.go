package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bitwise kernel tests: every training-path kernel (forward GEMM, dW and dx
// on the dense and sparse paths, ReLU, MSE, Adam) is checked against the
// scalar reference loops below with exact math.Float64bits equality, over
// shapes that hit every vector block and every scalar tail. Under -tags
// noasm the same tests pin the pure-Go fallbacks.

var (
	kernelRows = []int{1, 3, 4, 7, 8, 16, 33}
	kernelCols = []int{1, 3, 4, 5, 48, 160}
)

// kernelMatrix fills a rows x cols matrix with Gaussian values salted with
// +0, -0 and 1 entries, the operand mix ReLU activations and one-hot state
// encodings produce.
func kernelMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch r.Intn(6) {
		case 0:
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		case 2:
			m.Data[i] = 1
		default:
			m.Data[i] = r.NormFloat64()
		}
	}
	return m
}

// kernelGrad builds an output gradient of the given kind: "dense" mixes
// values with +0/-0, "onehot" has one nonzero per row except every third
// row, which is all zero (the Q-learning loss gradient), "zero" is all +0.
func kernelGrad(r *rand.Rand, kind string, rows, cols int) *Matrix {
	switch kind {
	case "dense":
		return kernelMatrix(r, rows, cols)
	case "onehot":
		g := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			if i%3 != 2 {
				g.Set(i, r.Intn(cols), r.NormFloat64())
			}
		}
		return g
	}
	return NewMatrix(rows, cols)
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// refWeightGrad is the textbook dW = x^T @ g: per element, ascending k from
// +0, skipping zero x entries.
func refWeightGrad(x, g *Matrix) *Matrix {
	dw := NewMatrix(x.Cols, g.Cols)
	for j := 0; j < x.Cols; j++ {
		for k := 0; k < x.Rows; k++ {
			av := x.At(k, j)
			if av == 0 {
				continue
			}
			for c := 0; c < g.Cols; c++ {
				dw.Data[j*g.Cols+c] += float64(av * g.At(k, c))
			}
		}
	}
	return dw
}

// refInputGrad is the textbook dx = g @ W^T: a row of g dotted with a row
// of W, ascending k from +0.
func refInputGrad(g, w *Matrix) *Matrix {
	dx := NewMatrix(g.Rows, w.Rows)
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < w.Rows; j++ {
			var acc float64
			for k := 0; k < g.Cols; k++ {
				acc += float64(g.At(i, k) * w.At(j, k))
			}
			dx.Set(i, j, acc)
		}
	}
	return dx
}

func TestTrainingForwardMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, rows := range kernelRows {
		for _, in := range kernelCols {
			for _, out := range kernelCols {
				x := kernelMatrix(r, rows, in)
				d := &Dense{
					W: &Param{Value: kernelMatrix(r, in, out), Grad: NewMatrix(in, out)},
					B: &Param{Value: kernelMatrix(r, 1, out), Grad: NewMatrix(1, out)},
				}
				want := NewMatrix(0, 0)
				if err := MatMulInto(want, x, d.W.Value); err != nil {
					t.Fatal(err)
				}
				if err := want.AddRowVector(d.B.Value); err != nil {
					t.Fatal(err)
				}
				got, err := d.Forward(x)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("forward %dx%d@%dx%d", rows, in, in, out)
				requireSameBits(t, name, got.Data, want.Data)

				relu := &ReLU{}
				act, err := relu.Forward(got)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range got.Data {
					w := 0.0
					if v > 0 {
						w = v
					}
					if math.Float64bits(act.Data[i]) != math.Float64bits(w) {
						t.Fatalf("%s relu[%d] = %v, want %v", name, i, act.Data[i], w)
					}
				}
				g := kernelMatrix(r, rows, out)
				gin, err := relu.Backward(g)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range g.Data {
					w := 0.0
					if got.Data[i] > 0 {
						w = v
					}
					if math.Float64bits(gin.Data[i]) != math.Float64bits(w) {
						t.Fatalf("%s relu grad[%d] = %v, want %v", name, i, gin.Data[i], w)
					}
				}
			}
		}
	}
}

// TestBackwardMatchesReference runs dW, db and dx on both the dense (GEMM)
// and the sparse path for every shape and gradient kind, on top of nonzero
// accumulated gradients, and compares each against the reference loops.
func TestBackwardMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, rows := range kernelRows {
		for _, in := range []int{1, 5, 24, 48} {
			for _, out := range kernelCols {
				for _, kind := range []string{"dense", "onehot", "zero"} {
					x := kernelMatrix(r, rows, in)
					w := kernelMatrix(r, in, out)
					g := kernelGrad(r, kind, rows, out)
					prevW := NewMatrix(in, out)
					prevB := NewMatrix(1, out)
					for i := range prevW.Data {
						prevW.Data[i] = r.NormFloat64()
					}
					for i := range prevB.Data {
						prevB.Data[i] = r.NormFloat64()
					}
					wantW := refWeightGrad(x, g)
					for i, v := range prevW.Data {
						wantW.Data[i] += v
					}
					wantB := prevB.Clone()
					for i := 0; i < rows; i++ {
						for c := 0; c < out; c++ {
							wantB.Data[c] += g.At(i, c)
						}
					}
					wantDx := refInputGrad(g, w)

					for _, path := range []string{"dense", "sparse", "auto"} {
						d := &Dense{
							W: &Param{Value: w, Grad: prevW.Clone()},
							B: &Param{Value: NewMatrix(1, out), Grad: prevB.Clone()},
						}
						if _, err := d.Forward(x); err != nil {
							t.Fatal(err)
						}
						var dx *Matrix
						switch path {
						case "dense":
							if err := d.denseBackward(g, true); err != nil {
								t.Fatal(err)
							}
							dx = d.dx
						case "sparse":
							if !d.sp.gather(g, len(g.Data)) {
								t.Fatal("gather refused a full-size limit")
							}
							d.sparseBackward(true)
							dx = d.dx
						default:
							var err error
							if dx, err = d.Backward(g); err != nil {
								t.Fatal(err)
							}
						}
						name := fmt.Sprintf("%s grad, %s path, x %dx%d, out %d", kind, path, rows, in, out)
						requireSameBits(t, name+": dW", d.W.Grad.Data, wantW.Data)
						requireSameBits(t, name+": db", d.B.Grad.Data, wantB.Data)
						requireSameBits(t, name+": dx", dx.Data, wantDx.Data)
					}
				}
			}
		}
	}
}

// TestSparseGatherLimit pins the path switch: a gradient with more nonzeros
// than the limit is refused, and the one-hot loss gradient is accepted.
func TestSparseGatherLimit(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	var s sparseGrad
	g := kernelGrad(r, "onehot", 16, 160)
	if !s.gather(g, len(g.Data)/sparseDensity) {
		t.Fatal("one-hot loss gradient not taken as sparse")
	}
	full := NewMatrix(4, 4)
	for i := range full.Data {
		full.Data[i] = 1
	}
	if s.gather(full, len(full.Data)/sparseDensity) {
		t.Fatal("dense gradient taken as sparse")
	}
}

// refAdam is the textbook scalar Adam loop, moments keyed by parameter.
type refAdam struct {
	lr, b1, b2, eps, clip float64
	step                  int
	m, v                  map[*Param][]float64
}

func (o *refAdam) stepParams(params []*Param) {
	if o.m == nil {
		o.m, o.v = map[*Param][]float64{}, map[*Param][]float64{}
	}
	o.step++
	scale := clipScale(params, o.clip)
	bc1 := 1 - math.Pow(o.b1, float64(o.step))
	bc2 := 1 - math.Pow(o.b2, float64(o.step))
	for _, p := range params {
		if o.m[p] == nil {
			o.m[p] = make([]float64, len(p.Value.Data))
			o.v[p] = make([]float64, len(p.Value.Data))
		}
		m, v := o.m[p], o.v[p]
		for i := range p.Value.Data {
			g := p.Grad.Data[i] * scale
			m[i] = float64(o.b1*m[i]) + float64((1-o.b1)*g)
			v[i] = float64(o.b2*v[i]) + float64((1-o.b2)*g*g)
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.Value.Data[i] -= float64(o.lr*mhat) / (math.Sqrt(vhat) + o.eps)
		}
	}
}

// TestAdamMatchesReference runs several Adam steps on parameter tensors of
// every kernel length, with and without clipping (the clip norm is far below
// the gradient norm, so scale != 1), and compares weights and both moments
// bit for bit.
func TestAdamMatchesReference(t *testing.T) {
	var sizes []int
	for _, rows := range kernelRows {
		for _, cols := range kernelCols {
			sizes = append(sizes, rows*cols)
		}
	}
	for _, clip := range []float64{0, 0.5} {
		r := rand.New(rand.NewSource(53))
		var got, want []*Param
		for _, n := range sizes {
			p := &Param{Value: kernelMatrix(r, 1, n), Grad: NewMatrix(1, n)}
			got = append(got, p)
			want = append(want, &Param{Value: p.Value.Clone(), Grad: NewMatrix(1, n)})
		}
		opt := NewAdam(1e-3)
		opt.ClipNorm = clip
		ref := &refAdam{lr: opt.LR, b1: opt.Beta1, b2: opt.Beta2, eps: opt.Eps, clip: clip}
		for step := 0; step < 6; step++ {
			for i, p := range got {
				g := kernelMatrix(r, 1, len(p.Grad.Data))
				copy(p.Grad.Data, g.Data)
				copy(want[i].Grad.Data, g.Data)
			}
			if clip > 0 && clipScale(got, clip) == 1 {
				t.Fatal("clip norm does not bind; scale != 1 is not exercised")
			}
			if err := opt.Step(got); err != nil {
				t.Fatal(err)
			}
			ref.stepParams(want)
			for i := range got {
				name := fmt.Sprintf("clip=%v step %d param %d (len %d)", clip, step, i, len(got[i].Value.Data))
				requireSameBits(t, name+": value", got[i].Value.Data, want[i].Value.Data)
				requireSameBits(t, name+": m", opt.m[i], ref.m[want[i]])
				requireSameBits(t, name+": v", opt.v[i], ref.v[want[i]])
			}
		}
	}
}

// TestAdamRejectsForeignParams: moments are indexed by position, so a
// parameter list of another shape is an error, not silently new state.
func TestAdamRejectsForeignParams(t *testing.T) {
	p := &Param{Value: NewMatrix(1, 3), Grad: NewMatrix(1, 3)}
	opt := NewAdam(1e-3)
	if err := opt.Step([]*Param{p}); err != nil {
		t.Fatal(err)
	}
	q := &Param{Value: NewMatrix(1, 4), Grad: NewMatrix(1, 4)}
	if err := opt.Step([]*Param{q}); err == nil {
		t.Fatal("step on a differently shaped param list: expected error")
	}
	if err := opt.Step([]*Param{p, p}); err == nil {
		t.Fatal("step on a longer param list: expected error")
	}
}

func TestMSELossIntoMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for _, rows := range kernelRows {
		for _, cols := range kernelCols {
			pred := kernelMatrix(r, rows, cols)
			target := pred.Clone()
			for i := range target.Data {
				switch r.Intn(4) {
				case 0:
					target.Data[i] = r.NormFloat64()
				case 1:
					target.Data[i] = math.Copysign(0, 1) // -0 - +0 keeps a -0 gradient
				}
			}
			var wantLoss float64
			want := NewMatrix(rows, cols)
			n := float64(len(pred.Data))
			for i := range pred.Data {
				d := pred.Data[i] - target.Data[i]
				wantLoss += 0.5 * d * d / n
				want.Data[i] = d / n
			}
			grad := NewMatrix(1, 1)
			loss, err := MSELossInto(grad, pred, target)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("mse %dx%d", rows, cols)
			requireSameBits(t, name+": loss", []float64{loss}, []float64{wantLoss})
			requireSameBits(t, name+": grad", grad.Data, want.Data)
		}
	}
}
