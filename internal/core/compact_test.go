package core

import (
	"math"
	"testing"

	"ctjam/internal/mdp"
)

// referenceCompact is the original map-based compact: it merges duplicate
// next states, drops zero probabilities and emits the survivors in ascending
// next-state order.
func referenceCompact(trs []mdp.Transition) []mdp.Transition {
	merged := make(map[int]float64, len(trs))
	for _, tr := range trs {
		if tr.Prob > 0 {
			merged[tr.Next] += tr.Prob
		}
	}
	out := make([]mdp.Transition, 0, len(merged))
	for next := 0; len(out) < len(merged); next++ {
		if p, ok := merged[next]; ok {
			out = append(out, mdp.Transition{Next: next, Prob: p})
		}
	}
	return out
}

// referenceTransitions is Eq. (6)-(14) as originally written: the lists in
// equation order, normalized by referenceCompact.
func referenceTransitions(m *Model, state, action int) []mdp.Transition {
	hop, power, err := m.DecodeAction(action)
	if err != nil {
		return nil
	}
	var (
		s    = float64(m.p.SweepCycle)
		win  = m.p.WinProb[power]
		lose = 1 - win
		tj   = m.StateTJ()
		j    = m.StateJ()
	)
	if state == tj || state == j {
		if hop {
			return []mdp.Transition{{Next: 0, Prob: 1}}
		}
		return referenceCompact([]mdp.Transition{
			{Next: tj, Prob: win},
			{Next: j, Prob: lose},
		})
	}
	n := float64(state + 1)
	if !hop {
		found := 1.0 / (s - n)
		trs := []mdp.Transition{
			{Next: tj, Prob: found * win},
			{Next: j, Prob: found * lose},
		}
		if state+1 <= m.p.SweepCycle-2 {
			trs = append(trs, mdp.Transition{Next: state + 1, Prob: 1 - found})
		}
		return referenceCompact(trs)
	}
	risk := (s - n - 1) / ((s - 1) * (s - n))
	return referenceCompact([]mdp.Transition{
		{Next: 0, Prob: 1 - risk},
		{Next: tj, Prob: risk * win},
		{Next: j, Prob: risk * lose},
	})
}

// TestTransitionsMatchReferenceCompact checks that the map-free compact
// returns exactly the reference lists — the same next states in the same
// order with the same probability bits — for every (state, action) of every
// sweep cycle 2..64 and each win-probability ladder, including ladders whose
// zeros and ones empty out a duel branch.
func TestTransitionsMatchReferenceCompact(t *testing.T) {
	ladders := [][]float64{
		{0},
		{1},
		{0, 1},
		{0.5, 0.75},
		{0.1, 0.35, 0.6, 0.85},
		{0, 0, 0, 0, 0, 0.1, 0.2, 0.3, 0.4, 0.5},
	}
	for s := 2; s <= 64; s++ {
		for _, win := range ladders {
			tx := make([]float64, len(win))
			for i := range tx {
				tx[i] = float64(6 + i)
			}
			m, err := NewModel(Params{SweepCycle: s, TxPowers: tx, WinProb: win, LossHop: 50, LossJam: 100})
			if err != nil {
				t.Fatal(err)
			}
			for st := 0; st < m.NumStates(); st++ {
				for a := 0; a < m.NumActions(); a++ {
					got, want := m.Transitions(st, a), referenceTransitions(m, st, a)
					if len(got) != len(want) {
						t.Fatalf("S=%d win=%v (%d,%d): %v, want %v", s, win, st, a, got, want)
					}
					for i := range got {
						if got[i].Next != want[i].Next ||
							math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
							t.Fatalf("S=%d win=%v (%d,%d): %v, want %v", s, win, st, a, got, want)
						}
					}
				}
			}
		}
	}
}
