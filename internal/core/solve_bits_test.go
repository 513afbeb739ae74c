package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"ctjam/internal/env"
	"ctjam/internal/jammer"
	"ctjam/internal/mdp"
)

// pinnedSolveDigest is the SHA-256 digest of every value-iteration result
// over pinnedSolveGrid: the sweep count, the final residual, V, Q and the
// greedy policy of each solve. It pins the solver arithmetic bit for bit,
// independently of how the model reaches the Bellman backup; any change to
// the transition lists, the reward folding or the backup order that moves a
// single bit fails here. Regenerate only for a deliberate numeric change.
const pinnedSolveDigest = "9926838a5d983a3d7b3f7a2a6b364353cf61b2b1e86751a6a4938192b690450d"

// pinnedWinProbSets are the power ladders of the pinned grid: the paper's
// 10-level ladder against a max-mode jammer (no level ever wins, so every
// duel transition has a zero probability) and a random-mode one, a two-level
// lose/win ladder, and four levels with non-dyadic win probabilities.
func pinnedWinProbSets() []Params {
	paper := env.DefaultConfig()
	maxMode := ParamsFromEnv(paper)
	paper.JammerMode = jammer.ModeRandom
	randMode := ParamsFromEnv(paper)
	return []Params{
		maxMode,
		randMode,
		{TxPowers: []float64{6, 10}, WinProb: []float64{0, 1}, LossHop: 50, LossJam: 100},
		{TxPowers: []float64{6, 7, 8, 9}, WinProb: []float64{0.1, 0.35, 0.6, 0.85}, LossHop: 3, LossJam: 7.5},
	}
}

// pinnedSolveGrid runs fn on every model of the pinned grid: sweep cycles
// 2..40, each power ladder of pinnedWinProbSets, and discounts 0.5, 0.9 and
// 0.99 (468 solves).
func pinnedSolveGrid(t testing.TB, fn func(m *Model, gamma float64)) {
	t.Helper()
	for s := 2; s <= 40; s++ {
		for _, p := range pinnedWinProbSets() {
			p.SweepCycle = s
			m, err := NewModel(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, gamma := range []float64{0.5, 0.9, 0.99} {
				fn(m, gamma)
			}
		}
	}
}

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

// hashSolution writes every field of a solution into h.
func hashSolution(h hash.Hash, sol *mdp.Solution) {
	hashInts(h, sol.Iterations)
	hashFloats(h, sol.Residual)
	hashFloats(h, sol.V...)
	for _, row := range sol.Q {
		hashFloats(h, row...)
	}
	hashInts(h, sol.Policy...)
}

// TestSolveBitsPinned solves the pinned grid and compares the digest of
// every result against the committed value.
func TestSolveBitsPinned(t *testing.T) {
	h := sha256.New()
	pinnedSolveGrid(t, func(m *Model, gamma float64) {
		sol, err := m.Solve(gamma)
		if err != nil {
			t.Fatalf("S=%d gamma=%v: %v", m.SweepCycle(), gamma, err)
		}
		hashSolution(h, sol)
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedSolveDigest {
		t.Errorf("solve digest %s, pinned %s", got, pinnedSolveDigest)
	}
}
