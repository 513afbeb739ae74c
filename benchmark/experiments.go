package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/experiments"
	"ctjam/internal/metrics"
	"ctjam/internal/rl"
)

// benchWorkers bounds the experiment worker pool: the benchmark is sized for
// a 2-core host.
const benchWorkers = 2

// sweepIDs are the cache-backed experiments: everything Figs. 6-8, Table I,
// the jammer-zoo matchup and the field curves compute through the point and
// field caches. They train no DQN and touch no PHY.
var sweepIDs = []string{
	"fig6a", "fig6b", "fig6c", "fig6d",
	"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f", "fig7g", "fig7h",
	"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h",
	"table1", "table1-seeds", "matchup", "fig11a", "fig11b", "scale",
}

// phyIDs are the experiments a traced pass charges to the PHY layer, and
// fieldIDs those it charges to the field simulator; other ids that are not
// decomposed are benchmark-visible assembly only.
var (
	phyIDs   = map[string]bool{"fig2b": true, "fig2b-wave": true, "stealth": true, "detect": true}
	fieldIDs = map[string]bool{"fig9a": true, "fig9b": true}
)

// expWorkload runs a set of experiment ids through the same Run+Format path
// as ctjam-experiments, each pass with a fresh cache.
type expWorkload struct {
	ids  []string
	base experiments.Options
	// want is the first pass's output per id; every later pass, traced or
	// not, must reproduce it byte for byte.
	want []string
}

func newQuickWorkload(seed int64) (workload, error) {
	return newExpWorkload(seed, experiments.QuickOptions(), experiments.IDs()), nil
}

func newSweepsWorkload(seed int64) (workload, error) {
	return newExpWorkload(seed, experiments.DefaultOptions(), sweepIDs), nil
}

func newExpWorkload(seed int64, o experiments.Options, ids []string) *expWorkload {
	o.Engine = experiments.EngineMDP
	o.Seed = seed
	o.Workers = benchWorkers
	return &expWorkload{ids: ids, base: o}
}

func (w *expWorkload) layers() []string {
	return []string{"mdp", "env", "iot", "rl", "phy", "experiments", "runtime", "trace"}
}

func (w *expWorkload) close() {}

// setup enumerates the workload's unique sweep points and field runs: the
// work list every pass computes, and what a distributed coordinator would
// ship.
func (w *expWorkload) setup(tr *Tracer) error {
	o := w.options()
	var pts []experiments.PointSpec
	var fs []experiments.FieldSpecKeyed
	err := tr.do(0, "experiments.CachePoints", "experiments", func() error {
		var err error
		if pts, err = experiments.CachePoints(o, w.ids); err != nil {
			return err
		}
		fs, err = experiments.CacheFieldSpecs(o, w.ids)
		return err
	})
	if err != nil {
		return err
	}
	if len(pts) == 0 || len(fs) == 0 {
		return fmt.Errorf("enumerated %d sweep points and %d field runs, want some of each", len(pts), len(fs))
	}
	return nil
}

func (w *expWorkload) options() experiments.Options {
	o := w.base
	o.Cache = experiments.NewCache()
	return o
}

func (w *expWorkload) pass(tr *Tracer) (*passResult, error) {
	var out []string
	var p *passResult
	var err error
	if tr == nil {
		out, p, err = w.plainPass()
	} else {
		out, p, err = w.tracedPass(tr)
	}
	if err != nil {
		return nil, err
	}
	p.attempted = len(w.ids)
	if w.want == nil {
		w.want = out
	}
	for i := range w.ids {
		if out[i] != w.want[i] {
			p.failed++
		}
	}
	return p, nil
}

// plainPass is exactly ctjam-experiments: Run and Format per id over one
// shared cache.
func (w *expWorkload) plainPass() ([]string, *passResult, error) {
	o := w.options()
	out := make([]string, len(w.ids))
	for i, id := range w.ids {
		res, err := experiments.Run(id, o)
		if err != nil {
			return nil, nil, err
		}
		if out[i], err = format(res); err != nil {
			return nil, nil, err
		}
	}
	st := o.Cache.Stats()
	return out, &passResult{counts: map[string]float64{
		"experiments.points_computed": float64(st.PointMisses),
		"experiments.points_reused":   float64(st.PointHits),
		"experiments.schemes_built":   float64(st.SchemeBuilds),
	}}, nil
}

func format(res *experiments.Result) (string, error) {
	var b bytes.Buffer
	if err := experiments.Format(&b, res); err != nil {
		return "", err
	}
	b.WriteByte('\n')
	return b.String(), nil
}

// tracedPass computes the same figures by calling each layer itself: it
// solves every RL scheme, evaluates every sweep point and runs every field
// spec up front, then lets Run assemble the figures from the filled cache.
// Decomposed ids (train) are rebuilt from their layer calls. Every call sits
// in a span charged to its layer.
func (w *expWorkload) tracedPass(tr *Tracer) ([]string, *passResult, error) {
	o := w.options()
	counts := map[string]float64{}
	root := tr.begin(0, 0, "pass", "experiments")
	defer tr.end(root)

	var specs []experiments.PointSpec
	var fspecs []experiments.FieldSpecKeyed
	err := tr.do(root, "experiments.CachePoints", "experiments", func() error {
		var err error
		if specs, err = experiments.CachePoints(o, w.ids); err != nil {
			return err
		}
		fspecs, err = experiments.CacheFieldSpecs(o, w.ids)
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	pts := make([]experiments.Point, len(specs))
	for i, sp := range specs {
		pts[i] = experiments.Point{Config: sp.Config, Defense: sp.Defense}
	}
	err = tr.do(root, "core.Model.Solve", "mdp", func() error {
		return solveSchemes(o, specs, counts)
	})
	if err != nil {
		return nil, nil, err
	}
	err = tr.do(root, "experiments.EvaluatePoints", "env", func() error {
		_, err := experiments.EvaluatePoints(o, pts)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	counts["env.points"] = float64(len(pts))
	counts["env.slots"] = float64(len(pts) * o.Slots)

	fs := make([]experiments.FieldSpec, len(fspecs))
	for i, f := range fspecs {
		fs[i] = f.Spec
		counts["iot.slot_deliveries"] += float64(f.Spec.Clusters * f.Spec.Nodes * f.Spec.Slots)
	}
	err = tr.do(root, "experiments.EvaluateFieldSpecs", "iot", func() error {
		_, err := experiments.EvaluateFieldSpecs(o, fs)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	counts["iot.runs"] = float64(len(fs))

	out := make([]string, len(w.ids))
	for i, id := range w.ids {
		var res *experiments.Result
		var err error
		switch {
		case id == "train":
			res, err = tracedTrain(tr, root, o, counts)
		default:
			layer := "experiments"
			if phyIDs[id] {
				layer = "phy"
			} else if fieldIDs[id] {
				layer = "iot"
			}
			sp := tr.begin(root, 0, "experiments.Run "+id, layer)
			res, err = experiments.Run(id, o)
			tr.end(sp)
		}
		if err != nil {
			return nil, nil, err
		}
		if out[i], err = format(res); err != nil {
			return nil, nil, err
		}
	}
	if st := o.Cache.Stats(); st.SchemeBuilds != 0 || st.PointMisses != int64(len(pts)) {
		return nil, nil, fmt.Errorf("traced pass left work to Run: %d schemes built, %d points computed, want 0 and %d",
			st.SchemeBuilds, st.PointMisses, len(pts))
	}
	return out, &passResult{counts: counts}, nil
}

// solveSchemes runs value iteration for every unique RL FH scheme of the
// specs on benchWorkers goroutines, as Run's point groups do, and installs
// each solved checkpoint in the cache under its scheme key, as a distributed
// worker's import would. It mirrors how the experiments package builds an
// MDP-engine scheme; the traced pass's byte-identical output checks that.
func solveSchemes(o experiments.Options, specs []experiments.PointSpec, counts map[string]float64) error {
	var keys []string
	cfgs := map[string]env.Config{}
	for _, sp := range specs {
		if sp.Defense != experiments.DefenseRL {
			continue
		}
		key := experiments.SchemeKey(o, sp.Config)
		if _, ok := cfgs[key]; !ok {
			keys = append(keys, key)
			cfgs[key] = sp.Config
		}
	}
	iters := make([]int, len(keys))
	next := make(chan int)
	var fns []func() error
	for w := 0; w < benchWorkers; w++ {
		fns = append(fns, func() error {
			for i := range next {
				n, err := solveScheme(o.Cache, keys[i], cfgs[keys[i]])
				if err != nil {
					return err
				}
				iters[i] = n
			}
			return nil
		})
	}
	fns = append(fns, func() error {
		defer close(next)
		for i := range keys {
			next <- i
		}
		return nil
	})
	if err := parallelDo(fns...); err != nil {
		return err
	}
	counts["mdp.solves"] = float64(len(keys))
	for _, n := range iters {
		counts["mdp.iterations"] += float64(n)
	}
	return nil
}

// solveScheme solves one scheme's MDP, installs its checkpoint and returns
// the value-iteration sweep count.
func solveScheme(cache *experiments.Cache, key string, cfg env.Config) (int, error) {
	model, err := core.NewModel(core.ParamsFromEnv(cfg))
	if err != nil {
		return 0, err
	}
	sol, err := model.Solve(0.9)
	if err != nil {
		return 0, err
	}
	ck, err := core.NewMDPSchemeCheckpoint("MDP*", model, sol.Policy, cfg.Channels, cfg.SweepWidth)
	if err != nil {
		return 0, err
	}
	blob, err := ck.Encode()
	if err != nil {
		return 0, err
	}
	return sol.Iterations, cache.ImportScheme(key, blob)
}

// trainStepProbe is how many rl.DQN.TrainStep calls a traced pass times on a
// warmed learner of the train experiment's shape.
const trainStepProbe = 200

// tracedTrain rebuilds the "train" experiment (§IV-B training statistics)
// from its layer calls: DQN training, model serialization, greedy
// evaluation. Its Result must format identically to experiments.Run's.
func tracedTrain(tr *Tracer, parent int, o experiments.Options, counts map[string]float64) (*experiments.Result, error) {
	cfg := env.DefaultConfig()
	cfg.Seed = o.Seed
	acfg := core.DefaultDQNAgentConfig(cfg.Channels, len(cfg.TxPowers), cfg.SweepWidth)
	acfg.Seed = o.Seed
	acfg.Epsilon.DecaySteps = o.TrainSlots * 2 / 3
	agent, err := core.NewDQNAgent(acfg)
	if err != nil {
		return nil, err
	}
	trainEnv, err := env.New(cfg)
	if err != nil {
		return nil, err
	}
	var avgReward float64
	err = tr.do(parent, "core.DQNAgent.Train", "rl", func() error {
		avgReward, err = agent.Train(trainEnv, o.TrainSlots)
		return err
	})
	if err != nil {
		return nil, err
	}
	counts["rl.train_slots"] += float64(o.TrainSlots)

	var buf bytes.Buffer
	if err := agent.SaveModel(&buf); err != nil {
		return nil, err
	}
	evalEnv, err := env.New(cfg)
	if err != nil {
		return nil, err
	}
	var c metrics.Counters
	err = tr.do(parent, "env.Run", "env", func() error {
		c, err = env.Run(evalEnv, agent, o.Slots)
		return err
	})
	if err != nil {
		return nil, err
	}
	counts["env.slots"] += float64(o.Slots)

	if err := trainStepSpan(tr, parent, acfg, o.Seed, counts); err != nil {
		return nil, err
	}

	return &experiments.Result{
		ID:     "train",
		Title:  "DQN training statistics",
		XLabel: "quantity",
		YLabel: "value",
		XTicks: []string{
			"training transitions",
			"model parameters (floats)",
			"model size (KB)",
			"avg reward/slot",
			"post-training ST (%)",
		},
		PaperNote: "§IV-B: >120000 data blocks, model of 10664 floats in 42.7 KB; " +
			"§IV-C reports ~78% ST at the default parameters",
		Series: []experiments.Series{{
			Name: "measured",
			X:    []float64{0, 1, 2, 3, 4},
			Y: []float64{
				float64(o.TrainSlots),
				float64(agent.Network().ParamCount()),
				float64(buf.Len()) / 1024,
				avgReward,
				100 * c.ST(),
			},
		}},
	}, nil
}

// trainStepSpan times trainStepProbe learner updates on a fresh rl.DQN of
// the agent's shape, its replay buffer warmed with seeded transitions.
func trainStepSpan(tr *Tracer, parent int, acfg core.DQNAgentConfig, seed int64, counts map[string]float64) error {
	d, err := rl.NewDQN(rl.DQNConfig{
		StateDim:        3 * acfg.HistoryLen,
		NumActions:      acfg.Channels * acfg.Powers,
		Hidden:          acfg.Hidden,
		Gamma:           acfg.Gamma,
		LearningRate:    acfg.LearningRate,
		BatchSize:       acfg.BatchSize,
		BufferCapacity:  acfg.BufferCapacity,
		WarmupSize:      acfg.WarmupSize,
		TargetSyncEvery: acfg.TargetSyncEvery,
		Epsilon:         acfg.Epsilon,
		Seed:            seed,
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	dim, na := 3*acfg.HistoryLen, acfg.Channels*acfg.Powers
	for i := 0; i < acfg.WarmupSize; i++ {
		t := rl.Transition{State: randStates(rng, 1, dim), Action: rng.Intn(na), Reward: rng.Float64(), Next: randStates(rng, 1, dim)}
		if _, err := d.Observe(t); err != nil {
			return err
		}
	}
	return tr.probe(parent, "rl.DQN.TrainStep", "rl", func() error {
		for i := 0; i < trainStepProbe; i++ {
			if _, err := d.TrainStep(); err != nil {
				return err
			}
		}
		counts["rl.train_steps"] += trainStepProbe
		return nil
	})
}

// randStates returns n seeded states of dim features in [-1, 1).
func randStates(rng *rand.Rand, n, dim int) []float64 {
	s := make([]float64, n*dim)
	for i := range s {
		s[i] = rng.Float64()*2 - 1
	}
	return s
}

func (w *expWorkload) report(m *metricSet, plain, traced []*passResult) error {
	for _, k := range []string{"experiments.points_computed", "experiments.points_reused", "experiments.schemes_built"} {
		m.set(k, plain[0].counts[k], "count")
	}
	if len(traced) == 0 {
		return nil
	}
	named := func(p *passResult, prefix string) float64 {
		var s float64
		for _, sp := range p.spans {
			if strings.HasPrefix(sp.Name, prefix) {
				s += (sp.End - sp.Start).Seconds()
			}
		}
		return s
	}
	med := func(f func(p *passResult) float64) float64 { return median(collect(traced, f)) }
	c := traced[0].counts
	self := func(layer string) float64 { return m.get("self." + layer + "_s") }

	m.set("mdp.solve_s", self("mdp"), "s")
	m.set("mdp.solves", c["mdp.solves"], "count")
	m.set("mdp.iterations", c["mdp.iterations"], "count")
	envS := self("env")
	m.set("env.eval_s", envS, "s")
	m.set("env.points", c["env.points"], "count")
	m.set("env.slots_per_s", c["env.slots"]/envS, "1/s")
	iotS := self("iot")
	m.set("iot.field_s", iotS, "s")
	m.set("iot.runs", c["iot.runs"], "count")
	fieldS := med(func(p *passResult) float64 { return named(p, "experiments.EvaluateFieldSpecs") })
	m.set("iot.slot_deliveries_per_s", c["iot.slot_deliveries"]/fieldS, "1/s")
	rlTrain := med(func(p *passResult) float64 { return named(p, "core.DQNAgent.Train") })
	m.set("rl.train_s", rlTrain, "s")
	if c["rl.train_slots"] > 0 {
		m.set("rl.train_slots_per_s", c["rl.train_slots"]/rlTrain, "1/s")
		step := med(func(p *passResult) float64 { return named(p, "rl.DQN.TrainStep") })
		m.set("rl.train_step_us", step/c["rl.train_steps"]*1e6, "us")
	} else {
		m.set("rl.train_slots_per_s", 0, "1/s")
		m.set("rl.train_step_us", 0, "us")
	}
	m.set("phy.s", self("phy"), "s")
	m.set("phy.fig2b_wave_s", med(func(p *passResult) float64 { return named(p, "experiments.Run fig2b-wave") }), "s")
	m.set("phy.stealth_s", med(func(p *passResult) float64 { return named(p, "experiments.Run stealth") }), "s")
	m.set("experiments.other_s", self("experiments"), "s")
	return nil
}
