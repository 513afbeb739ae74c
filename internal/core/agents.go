package core

import (
	"fmt"
	"math/rand"

	"ctjam/internal/mdp"
	"ctjam/internal/policy"
)

// hopTarget delegates to the shared block-aware target draw in
// internal/policy, where the decision logic now lives (see that package's
// doc). Kept so the tabular training loop and tests draw identically.
func hopTarget(rng *rand.Rand, current, channels, sweepWidth int) int {
	return policy.HopTarget(rng, current, channels, sweepWidth)
}

// MDPScheme solves the model (if sol is nil) and wraps its greedy policy as
// the "MDP*" scheme over a K-channel system: the exact optimal policy of the
// anti-jamming MDP, tracking its belief state (consecutive successful slots
// on the current channel, or the jammed states) from observed outcomes, as
// the idealized §III-B analysis assumes. Serial runs drive
// scheme.NewAgent(); batched runs share the scheme's policy directly.
func MDPScheme(m *Model, sol *mdp.Solution, channels, sweepWidth int) (*policy.Scheme, error) {
	if err := checkTopology(channels, sweepWidth); err != nil {
		return nil, err
	}
	if sol == nil {
		var err error
		sol, err = m.Solve(0.9)
		if err != nil {
			return nil, err
		}
	}
	if len(sol.Policy) != m.NumStates() {
		return nil, fmt.Errorf("core: policy has %d states, model needs %d", len(sol.Policy), m.NumStates())
	}
	return policy.MDPScheme("MDP*", m, sol.Policy, channels, sweepWidth)
}

func checkTopology(channels, sweepWidth int) error {
	if channels < 2 {
		return fmt.Errorf("core: channels %d must be >= 2", channels)
	}
	if sweepWidth <= 0 || sweepWidth > channels {
		return fmt.Errorf("core: sweep width %d out of range [1,%d]", sweepWidth, channels)
	}
	if (channels+sweepWidth-1)/sweepWidth < 2 {
		return fmt.Errorf("core: need at least 2 sweep blocks (channels=%d width=%d)", channels, sweepWidth)
	}
	return nil
}
