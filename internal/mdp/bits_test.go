package mdp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// pinnedRandomDigest is the SHA-256 digest of the solver's results on the
// pinnedRandomModels set: for each model the Solve result (sweep count,
// residual, V, Q, policy), one BellmanBackup of a random value vector (the
// backup and its returned change) and the EvaluatePolicy value of a random
// policy. Regenerate only for a deliberate numeric change.
const pinnedRandomDigest = "46958e48457130675508a15b1d99779caf4502f7313e4792283a48df174e685b"

// pinnedRandomModels is the number of seeded random models the digest covers.
const pinnedRandomModels = 200

func hashFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashInts(h hash.Hash, xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

// TestSolveBitsPinned runs the solver entry points over seeded random models
// of 1..16 states, 1..6 actions and discounts in [0, 0.99), and compares the
// digest of every result against the committed value.
func TestSolveBitsPinned(t *testing.T) {
	gammas := []float64{0, 0.3, 0.5, 0.85, 0.9, 0.95, 0.98}
	h := sha256.New()
	for seed := int64(0); seed < pinnedRandomModels; seed++ {
		r := rand.New(rand.NewSource(seed))
		nS, nA := 1+r.Intn(16), 1+r.Intn(6)
		gamma := gammas[r.Intn(len(gammas))]
		m := newRandomModel(r, nS, nA)

		sol, err := Solve(m, gamma, 1e-10, 1_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		hashInts(h, sol.Iterations)
		hashFloats(h, sol.Residual)
		hashFloats(h, sol.V...)
		for _, row := range sol.Q {
			hashFloats(h, row...)
		}
		hashInts(h, sol.Policy...)

		v := make([]float64, nS)
		for i := range v {
			v[i] = r.NormFloat64() * 10
		}
		out := make([]float64, nS)
		delta, err := BellmanBackup(m, gamma, v, out)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		hashFloats(h, delta)
		hashFloats(h, out...)

		pol := make([]int, nS)
		for i := range pol {
			pol[i] = r.Intn(nA)
		}
		vp, err := EvaluatePolicy(m, pol, gamma, 1e-10, 1_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		hashFloats(h, vp...)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedRandomDigest {
		t.Errorf("solve digest %s, pinned %s", got, pinnedRandomDigest)
	}
}
