package nn

import (
	"fmt"
	"math"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step(params []*Param) error
}

// SGD is plain stochastic gradient descent with optional gradient clipping.
type SGD struct {
	LR       float64
	ClipNorm float64 // 0 disables clipping
}

var _ Optimizer = (*SGD)(nil)

// Step applies one SGD update.
func (o *SGD) Step(params []*Param) error {
	if o.LR <= 0 {
		return fmt.Errorf("nn: sgd learning rate %v must be positive", o.LR)
	}
	scale := clipScale(params, o.ClipNorm)
	for _, p := range params {
		for i := range p.Value.Data {
			p.Value.Data[i] -= o.LR * scale * p.Grad.Data[i]
		}
	}
	return nil
}

// Adam implements the Adam optimizer (Kingma & Ba 2015) with bias
// correction and optional global-norm gradient clipping.
//
// The moment estimates are indexed by parameter position: every Step must
// pass the same parameter list (Network.Params of one unchanged network).
// Start a fresh Adam for a different network.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64

	step int
	m, v [][]float64 // first/second moments, one slice per parameter
}

var _ Optimizer = (*Adam)(nil)

// NewAdam returns an Adam optimizer with standard defaults for the
// unset coefficients.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// adamCoef is one Adam step's coefficients, laid out for the AVX kernel.
type adamCoef struct {
	scale, b1, c1, b2, c2, bc1, bc2, lr, eps float64
}

// Step applies one Adam update.
func (o *Adam) Step(params []*Param) error {
	if o.LR <= 0 {
		return fmt.Errorf("nn: adam learning rate %v must be positive", o.LR)
	}
	if o.m == nil {
		o.m, o.v = newMoments(params), newMoments(params)
	} else if err := o.checkParams(params); err != nil {
		return err
	}
	o.step++
	c := adamCoef{
		scale: clipScale(params, o.ClipNorm),
		b1:    o.Beta1,
		c1:    1 - o.Beta1,
		b2:    o.Beta2,
		c2:    1 - o.Beta2,
		bc1:   1 - math.Pow(o.Beta1, float64(o.step)),
		bc2:   1 - math.Pow(o.Beta2, float64(o.step)),
		lr:    o.LR,
		eps:   o.Eps,
	}
	for i, p := range params {
		adamUpdate(p.Value.Data, p.Grad.Data, o.m[i], o.v[i], &c)
	}
	return nil
}

func newMoments(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = make([]float64, len(p.Value.Data))
	}
	return out
}

// checkParams reports whether params matches the shapes the moments were
// built for.
func (o *Adam) checkParams(params []*Param) error {
	if len(params) != len(o.m) {
		return fmt.Errorf("nn: adam state holds %d params, got %d", len(o.m), len(params))
	}
	for i, p := range params {
		if len(p.Value.Data) != len(o.m[i]) {
			return fmt.Errorf("nn: adam param %d has %d values, state holds %d", i, len(p.Value.Data), len(o.m[i]))
		}
	}
	return nil
}

// adamUpdate applies one Adam step to a parameter tensor. The AVX kernel
// covers the 4-aligned prefix with the scalar loop's exact sequence of
// VMULPD/VADDPD/VDIVPD/VSQRTPD/VSUBPD roundings, so both agree bit for bit.
func adamUpdate(p, g, m, v []float64, c *adamCoef) {
	i := 0
	if useAVX {
		if n4 := len(p) &^ 3; n4 > 0 {
			adamAVX(&p[0], &g[0], &m[0], &v[0], n4, c)
			i = n4
		}
	}
	for ; i < len(p); i++ {
		gi := g[i] * c.scale
		m[i] = float64(c.b1*m[i]) + float64(c.c1*gi)
		v[i] = float64(c.b2*v[i]) + float64(float64(c.c2*gi)*gi)
		mhat := m[i] / c.bc1
		vhat := v[i] / c.bc2
		p[i] -= float64(c.lr*mhat) / (math.Sqrt(vhat) + c.eps)
	}
}

// clipScale returns the multiplier that caps the global gradient norm at
// clipNorm (1 when clipping is disabled or unnecessary).
func clipScale(params []*Param, clipNorm float64) float64 {
	if clipNorm <= 0 {
		return 1
	}
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += float64(g * g)
		}
	}
	norm := math.Sqrt(sq)
	if norm <= clipNorm {
		return 1
	}
	return clipNorm / norm
}
