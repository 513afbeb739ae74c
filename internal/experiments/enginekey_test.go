package experiments

import (
	"testing"
	"time"

	"ctjam/internal/env"
	"ctjam/internal/policy"
)

// Regression tests for the cache-key engine contract: the engine choice (MDP
// vs DQN) must be part of every point, scheme and RL field fingerprint, so a
// DQN result can never be served from — or poison — an MDP cache entry.

func TestCacheKeysIncludeEngineChoice(t *testing.T) {
	cfg := env.DefaultConfig()
	dqn := cacheTestOptions()
	dqn.Engine = EngineDQN
	mdp := dqn
	mdp.Engine = EngineMDP

	if pointKey(dqn, Point{Config: cfg}) == pointKey(mdp, Point{Config: cfg}) {
		t.Fatalf("point keys must differ by engine: %q", pointKey(dqn, Point{Config: cfg}))
	}
	if schemeKey(dqn, Point{Config: cfg}) == schemeKey(mdp, Point{Config: cfg}) {
		t.Fatalf("scheme keys must differ by engine: %q", schemeKey(dqn, Point{Config: cfg}))
	}

	// A shared cache keeps the two engine variants as distinct entries.
	c := NewCache()
	if _, claimed := c.points.claim(pointKey(dqn, Point{Config: cfg})); !claimed {
		t.Fatal("first dqn-point claim should miss")
	}
	if _, claimed := c.points.claim(pointKey(mdp, Point{Config: cfg})); !claimed {
		t.Fatal("mdp point must not be served from the dqn entry")
	}
	if _, claimed := c.points.claim(pointKey(dqn, Point{Config: cfg})); claimed {
		t.Fatal("repeat dqn-point claim should hit")
	}
}

// TestFieldRLSchemeDQN pins the field RL scheme to the sweep points'
// checkpoint path under EngineDQN: its field key records the engine, the
// clusters play the trained DQN policy, and the run completes.
func TestFieldRLSchemeDQN(t *testing.T) {
	spec := FieldSpec{
		Scheme: FieldSchemeRL, Jammer: true, Clusters: 2, Nodes: 3,
		SlotDuration: time.Second, JammerSlot: time.Second, Seed: 1, Slots: 20,
	}
	o := cacheTestOptions()
	o.Engine = EngineDQN
	o.TrainSlots = 300
	mdp := o
	mdp.Engine = EngineMDP
	if fieldKey(o, spec) == fieldKey(mdp, spec) {
		t.Fatalf("RL field keys must differ by engine: %q", fieldKey(o, spec))
	}
	sch, err := fieldScheme(o, spec, fieldConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sch.Policy().(*policy.DQN); !ok {
		t.Fatalf("field RL policy is %T, want *policy.DQN", sch.Policy())
	}
	if _, err := computeFieldSpec(o, spec); err != nil {
		t.Fatal(err)
	}
}
