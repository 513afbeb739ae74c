package core

import (
	"testing"

	"ctjam/internal/env"
	"ctjam/internal/jammer"
	"ctjam/internal/policy"
)

func TestNewQAgentValidation(t *testing.T) {
	m, err := NewModel(paperParams(jammer.ModeMax))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQAgent(m, 1, 1, 1); err == nil {
		t.Fatal("bad topology: expected error")
	}
	if _, err := NewQAgent(m, 16, 4, 1); err != nil {
		t.Fatal(err)
	}
}

func TestQAgentTrainValidation(t *testing.T) {
	m, err := NewModel(paperParams(jammer.ModeMax))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewQAgent(m, 16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := env.New(env.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(e, 0); err == nil {
		t.Fatal("0 slots: expected error")
	}
}

func TestQAgentLearnsToDefend(t *testing.T) {
	// Over the compact belief-state space, tabular Q-learning should
	// approach the exact policy's performance — this is the baseline the
	// paper's DQN is compared against conceptually.
	cfg := env.DefaultConfig()
	cfg.Seed = 3
	m, err := NewModel(ParamsFromEnv(cfg))
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewQAgent(m, 16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	trainEnv, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Train(trainEnv, 20000); err != nil {
		t.Fatal(err)
	}

	evalCfg := cfg
	evalCfg.Seed = 99
	st := runAgent(t, evalCfg, agent, 10000).ST()

	passive := baselineAgent(t, policy.BaselinePassive)
	stPassive := runAgent(t, evalCfg, passive, 10000).ST()
	t.Logf("ST: q-learning=%.3f passive=%.3f", st, stPassive)
	if st <= stPassive {
		t.Fatalf("Q-learning ST %.3f should beat passive %.3f", st, stPassive)
	}
	if st < 0.6 {
		t.Fatalf("Q-learning ST %.3f too far below the exact policy's ~0.79", st)
	}
}

func TestQAgentBeliefTracking(t *testing.T) {
	m, err := NewModel(paperParams(jammer.ModeMax))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewQAgent(m, 16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Reset(nil)
	if a.beliefState() != 0 {
		t.Fatalf("initial belief = %d, want 0 (n=1)", a.beliefState())
	}
	a.observe(env.OutcomeSuccess, false)
	if got, _ := m.StateOfN(2); a.beliefState() != got {
		t.Fatalf("belief after success = %d, want n=2", a.beliefState())
	}
	a.observe(env.OutcomeJammed, false)
	if a.beliefState() != m.StateJ() {
		t.Fatalf("belief after jam = %d, want J", a.beliefState())
	}
	a.observe(env.OutcomeJammedSurvived, false)
	if a.beliefState() != m.StateTJ() {
		t.Fatalf("belief after survived jam = %d, want TJ", a.beliefState())
	}
	a.observe(env.OutcomeSuccess, true)
	if a.beliefState() != 0 {
		t.Fatalf("belief after hop+success = %d, want n=1", a.beliefState())
	}
	// n saturates at S-1.
	for i := 0; i < 10; i++ {
		a.observe(env.OutcomeSuccess, false)
	}
	if got, _ := m.StateOfN(3); a.beliefState() != got {
		t.Fatalf("belief saturation = %d, want n=3", a.beliefState())
	}
}
