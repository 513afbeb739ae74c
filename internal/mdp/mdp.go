// Package mdp provides a generic finite Markov-decision-process solver:
// Bellman-optimality value iteration (the contraction-mapping construction
// used in the paper's Theorem III.1 proof), greedy policy extraction and
// policy evaluation.
package mdp

import (
	"errors"
	"fmt"
	"math"
)

// Transition is one outcome of taking an action: the next state and its
// probability.
type Transition struct {
	Next int
	Prob float64
}

// Model is a finite MDP. States and actions are dense integer indices.
// Implementations must return transition distributions that sum to 1 for
// every (state, action) pair.
type Model interface {
	// NumStates returns the number of states.
	NumStates() int
	// NumActions returns the number of actions (shared by all states).
	NumActions() int
	// Transitions returns the transition distribution of (state, action).
	Transitions(state, action int) []Transition
	// Reward returns the immediate reward U(x, a, x') of moving from
	// state to next under action.
	Reward(state, action, next int) float64
}

// Solution holds the result of value iteration.
type Solution struct {
	// V is the optimal state-value function.
	V []float64
	// Q is the optimal action-value function, Q[state][action].
	Q [][]float64
	// Policy is the greedy policy: Policy[state] is the argmax action.
	Policy []int
	// Iterations is the number of sweeps performed.
	Iterations int
	// Residual is the final max-norm Bellman residual.
	Residual float64
}

// Solver errors.
var (
	ErrBadDiscount   = errors.New("mdp: discount factor must be in [0, 1)")
	ErrEmptyModel    = errors.New("mdp: model has no states or actions")
	ErrNotConverged  = errors.New("mdp: value iteration did not converge")
	ErrBadTransition = errors.New("mdp: transition probabilities invalid")
)

// table is a model tabulated once into compressed-sparse-row arrays. The
// transitions of (s, a) are entries off[s*nA+a] up to off[s*nA+a+1] of next,
// prob and rew, in the order Model.Transitions returns them, and rew holds
// the folded Reward(s, a, next) of each. Every Bellman backup runs on these
// arrays, so a solve calls the model once per transition instead of once
// per transition per sweep.
type table struct {
	nS, nA int
	off    []int
	next   []int
	prob   []float64
	rew    []float64
}

// tabulate builds the table of m in one pass over its (state, action) pairs
// and validates it on the way: every transition list must be a probability
// distribution over valid states, with finite probabilities and rewards.
func tabulate(m Model) (*table, error) {
	nS, nA := m.NumStates(), m.NumActions()
	if nS <= 0 || nA <= 0 {
		return nil, ErrEmptyModel
	}
	t := &table{nS: nS, nA: nA, off: make([]int, nS*nA+1)}
	for s := 0; s < nS; s++ {
		for a := 0; a < nA; a++ {
			trs := m.Transitions(s, a)
			if t.next == nil {
				// Size for every pair fanning out like the first; append
				// regrows only when later pairs fan out wider.
				n := len(trs) * nS * nA
				t.next = make([]int, 0, n)
				t.prob = make([]float64, 0, n)
				t.rew = make([]float64, 0, n)
			}
			var sum float64
			for _, tr := range trs {
				if tr.Next < 0 || tr.Next >= nS {
					return nil, fmt.Errorf("%w: state %d action %d -> next %d out of range",
						ErrBadTransition, s, a, tr.Next)
				}
				if !finite(tr.Prob) {
					return nil, fmt.Errorf("%w: state %d action %d has non-finite probability %v",
						ErrBadTransition, s, a, tr.Prob)
				}
				if tr.Prob < -1e-12 {
					return nil, fmt.Errorf("%w: state %d action %d has negative probability %v",
						ErrBadTransition, s, a, tr.Prob)
				}
				r := m.Reward(s, a, tr.Next)
				if !finite(r) {
					return nil, fmt.Errorf("%w: state %d action %d -> next %d has non-finite reward %v",
						ErrBadTransition, s, a, tr.Next, r)
				}
				sum += tr.Prob
				t.next = append(t.next, tr.Next)
				t.prob = append(t.prob, tr.Prob)
				t.rew = append(t.rew, r)
			}
			if math.Abs(sum-1) > 1e-9 {
				return nil, fmt.Errorf("%w: state %d action %d probabilities sum to %v",
					ErrBadTransition, s, a, sum)
			}
			t.off[s*nA+a+1] = len(t.next)
		}
	}
	return t, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// q returns the expected one-step value under v of the pair sa = s*nA + a,
// accumulated over the pair's transitions in table order. It is the one Q
// kernel every solver entry point runs on.
func (t *table) q(sa int, gamma float64, v []float64) float64 {
	lo, hi := t.off[sa], t.off[sa+1]
	next, prob, rew := t.next[lo:hi], t.prob[lo:hi], t.rew[lo:hi]
	var q float64
	for i, p := range prob {
		q += p * (rew[i] + gamma*v[next[i]])
	}
	return q
}

// backup is one Bellman-optimality backup of v into out; it returns the
// max-norm change.
func (t *table) backup(gamma float64, v, out []float64) float64 {
	var delta float64
	for s := 0; s < t.nS; s++ {
		best := math.Inf(-1)
		for a := 0; a < t.nA; a++ {
			if q := t.q(s*t.nA+a, gamma, v); q > best {
				best = q
			}
		}
		if d := math.Abs(best - v[s]); d > delta {
			delta = d
		}
		out[s] = best
	}
	return delta
}

// ValidateModel checks that every (state, action) transition distribution is
// a probability distribution over valid states with finite probabilities and
// rewards.
func ValidateModel(m Model) error {
	_, err := tabulate(m)
	return err
}

// BellmanBackup applies one Bellman-optimality backup to v, writing the
// result into out (which must have NumStates elements), and returns the
// max-norm change. This is the contraction mapping of Eq. (20). It returns
// ValidateModel's error for an invalid model.
func BellmanBackup(m Model, gamma float64, v, out []float64) (float64, error) {
	t, err := tabulate(m)
	if err != nil {
		return 0, err
	}
	return t.backup(gamma, v, out), nil
}

// Solve runs value iteration to the given max-norm tolerance (or maxIter
// sweeps) and extracts the optimal Q function and greedy policy. The model
// is validated and tabulated once; the sweeps never call it.
func Solve(m Model, gamma, tol float64, maxIter int) (*Solution, error) {
	if gamma < 0 || gamma >= 1 {
		return nil, fmt.Errorf("%w: got %v", ErrBadDiscount, gamma)
	}
	t, err := tabulate(m)
	if err != nil {
		return nil, err
	}
	nS, nA := t.nS, t.nA
	v := make([]float64, nS)
	next := make([]float64, nS)
	var (
		iter  int
		delta float64
	)
	for iter = 1; iter <= maxIter; iter++ {
		delta = t.backup(gamma, v, next)
		v, next = next, v
		if delta <= tol {
			break
		}
	}
	if delta > tol {
		return nil, fmt.Errorf("%w: residual %v after %d iterations", ErrNotConverged, delta, maxIter)
	}

	q := make([][]float64, nS)
	qs := make([]float64, nS*nA)
	policy := make([]int, nS)
	for s := 0; s < nS; s++ {
		q[s] = qs[s*nA : (s+1)*nA : (s+1)*nA]
		bestA, best := 0, math.Inf(-1)
		for a := 0; a < nA; a++ {
			qa := t.q(s*nA+a, gamma, v)
			q[s][a] = qa
			if qa > best {
				best, bestA = qa, a
			}
		}
		policy[s] = bestA
		v[s] = best
	}
	return &Solution{V: v, Q: q, Policy: policy, Iterations: iter, Residual: delta}, nil
}

// EvaluatePolicy computes the value function of a fixed policy by iterative
// policy evaluation.
func EvaluatePolicy(m Model, policy []int, gamma, tol float64, maxIter int) ([]float64, error) {
	if gamma < 0 || gamma >= 1 {
		return nil, fmt.Errorf("%w: got %v", ErrBadDiscount, gamma)
	}
	nS := m.NumStates()
	if len(policy) != nS {
		return nil, fmt.Errorf("mdp: policy has %d entries, want %d", len(policy), nS)
	}
	for s, a := range policy {
		if a < 0 || a >= m.NumActions() {
			return nil, fmt.Errorf("mdp: policy action %d at state %d out of range", a, s)
		}
	}
	t, err := tabulate(m)
	if err != nil {
		return nil, err
	}
	v := make([]float64, nS)
	next := make([]float64, nS)
	for iter := 0; iter < maxIter; iter++ {
		var delta float64
		for s := 0; s < nS; s++ {
			val := t.q(s*t.nA+policy[s], gamma, v)
			if d := math.Abs(val - v[s]); d > delta {
				delta = d
			}
			next[s] = val
		}
		v, next = next, v
		if delta <= tol {
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w: policy evaluation", ErrNotConverged)
}

// GreedyPolicy extracts the argmax policy from an action-value table.
func GreedyPolicy(q [][]float64) []int {
	policy := make([]int, len(q))
	for s, row := range q {
		bestA, best := 0, math.Inf(-1)
		for a, v := range row {
			if v > best {
				best, bestA = v, a
			}
		}
		policy[s] = bestA
	}
	return policy
}
