package experiments

import (
	"fmt"
	"sort"

	"ctjam/internal/env"
	"ctjam/internal/metrics"
	"ctjam/internal/policy"
)

// Point is one cache-backed unit of sweep evaluation: an environment (which
// carries the attacker via Config.Jammer) plus the defense scheme driving the
// victim. An empty Defense selects the engine-backed "RL FH" scheme — the
// only defense that trains; the named baselines (see Defenses) are built
// deterministically from the config alone.
type Point struct {
	// Config is the environment configuration the point evaluates.
	Config env.Config
	// Defense selects the victim's scheme: "" for the engine-selected RL
	// FH, or one of the baseline tags "psv", "rand", "static".
	Defense string
}

// Defense tags for Point.Defense: the policy package's baseline tags, shared
// with the field cache's scheme tags.
const (
	DefenseRL      = "" // engine-selected RL FH (MDP or DQN)
	DefensePassive = policy.BaselinePassive
	DefenseRandom  = policy.BaselineRandom
	DefenseStatic  = policy.BaselineStatic
)

// PointSpec identifies one unique cache-backed sweep point: the point it
// evaluates plus the canonical cache key binding it to one Options budget.
// Specs are the unit of work distributed execution ships between processes
// (see internal/dist).
type PointSpec struct {
	// Key is the canonical point fingerprint — the Cache memoization key.
	// It covers the point and every Options field that feeds it, so equal
	// keys mean bit-identical results.
	Key string
	// Config is the environment configuration the point evaluates.
	Config env.Config
	// Defense is the point's defense scheme tag ("" = engine RL FH).
	Defense string
}

// PointKey returns the canonical cache key of one sweep point under o,
// applying the same option defaulting Run does. Workers recompute it from
// the wire-decoded (Options, Point) pair and compare against the
// coordinator's key, so any codec or version drift is caught before a wrong
// result can be imported.
func PointKey(o Options, p Point) string {
	return pointKey(o.withFloor(), p)
}

// CachePoints enumerates the unique cache-backed sweep points the given
// experiment ids evaluate under o, sorted by Key. With the full id set this
// is the "-id all" work list: 115 unique points backing the 20 Figs. 6-8
// metric panels plus Table I (which coincides with the L_J=100 /
// lower-bound-6 sweep points and deduplicates against them), its
// seed-replicated variant table1-seeds, and the jammer-zoo matchup grid
// (whose RL-vs-sweeper cell deduplicates against the default-config point).
// Ids whose compute is not cache-backed (fig2b, fig9-10, field, stealth,
// train) contribute nothing; unknown ids return ErrUnknownExperiment.
//
// The sorted order is the deterministic work-assignment order of distributed
// execution: shards and coordinators derive identical lists from identical
// (Options, ids) inputs, independent of registration or arrival order.
func CachePoints(o Options, ids []string) ([]PointSpec, error) {
	o = o.withFloor()
	seen := make(map[string]bool)
	var out []PointSpec
	for _, id := range ids {
		e, err := lookup(id)
		if err != nil {
			return nil, err
		}
		if e.points == nil {
			continue
		}
		for _, p := range e.points(o) {
			k := pointKey(o, p)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, PointSpec{Key: k, Config: p.Config, Defense: p.Defense})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// EvaluatePoints computes the Counters of the given points under o, through
// the shared point cache (o.Cache, or a private one when nil). This is the
// worker-side entry point of distributed execution: results are bit-identical
// to the same points' evaluation inside a single-process Run, because both
// paths are runPoints over canonical keys.
func EvaluatePoints(o Options, pts []Point) ([]metrics.Counters, error) {
	o = o.withFloor()
	return runPoints(o, pts, func(i int) string {
		return fmt.Sprintf("point %s", pts[i].Config.Fingerprint())
	})
}

// asPoints wraps bare environment configs as RL FH points — the defense every
// pre-matchup experiment evaluates.
func asPoints(cfgs []env.Config) []Point {
	pts := make([]Point, len(cfgs))
	for i, cfg := range cfgs {
		pts[i] = Point{Config: cfg}
	}
	return pts
}
