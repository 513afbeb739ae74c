package env_test

import (
	"testing"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/fault"
)

// The slot-level contract: at steady state neither env.Step nor one
// env.BatchRun slot allocates, with or without fault injection. Each gate
// runs once with Faults == nil and once under a burst+ACK+drift chain.

// noAllocFaults is the faulted variant's injector chain.
func noAllocFaults() fault.Injector {
	return fault.Chain{
		fault.BurstNoise{Seed: 3, Prob: 0.3, Len: 4, Power: 12},
		fault.AckLoss{Seed: 4, Prob: 0.1},
		fault.ClockDrift{Seed: 5, Max: 0.02, Period: 50},
	}
}

func forEachFaultSetting(t *testing.T, fn func(t *testing.T, faults fault.Injector)) {
	t.Run("faults=nil", func(t *testing.T) { fn(t, nil) })
	t.Run("faults=burst+ack+drift", func(t *testing.T) { fn(t, noAllocFaults()) })
}

func TestStepNoAllocs(t *testing.T) {
	forEachFaultSetting(t, func(t *testing.T, faults fault.Injector) {
		cfg := env.DefaultConfig()
		cfg.Faults = faults
		e, err := env.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		step := func() {
			if _, err := e.Step(i*5%cfg.Channels, i%len(cfg.TxPowers)); err != nil {
				t.Fatal(err)
			}
			i++
		}
		// Prime past the jammer's warm-up.
		for i < 200 {
			step()
		}
		if avg := testing.AllocsPerRun(1000, step); avg != 0 {
			t.Fatalf("Step allocates %.1f times per slot at steady state", avg)
		}
	})
}

// BenchmarkEnvironmentStep measures one slot, plain and under the fault
// chain; TestStepNoAllocs enforces its 0 allocs/op.
func BenchmarkEnvironmentStep(b *testing.B) {
	for _, bc := range []struct {
		name   string
		faults fault.Injector
	}{
		{"plain", nil},
		{"faults", noAllocFaults()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := env.DefaultConfig()
			cfg.Faults = bc.faults
			e, err := env.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Step(i%16, i%10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBatchRunSlotNoAllocs drives BatchRun through an MDP scheme's
// policy.Batch, so DecideBatch (belief encode, lookup, hop decode) is
// covered along with every link's Step. A run allocates a fixed amount up
// front (link RNGs, counters, slot buffers) and must add nothing per slot:
// a long run allocates exactly as much as a one-slot run. The environments
// are not reset between runs, so every measured run starts past warm-up.
func TestBatchRunSlotNoAllocs(t *testing.T) {
	forEachFaultSetting(t, func(t *testing.T, faults fault.Injector) {
		const links, long = 4, 500
		cfg := env.DefaultConfig()
		cfg.Faults = faults
		model, err := core.NewModel(core.ParamsFromEnv(cfg))
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := core.MDPScheme(model, nil, cfg.Channels, cfg.SweepWidth)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := scheme.NewBatch(links)
		if err != nil {
			t.Fatal(err)
		}
		envs := make([]*env.Environment, links)
		for i := range envs {
			c := cfg
			c.Seed = int64(10 + i)
			if envs[i], err = env.New(c); err != nil {
				t.Fatal(err)
			}
		}
		perRun := func(slots int) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := env.BatchRun(envs, batch, slots); err != nil {
					t.Fatal(err)
				}
			})
		}
		perRun(long) // prime past the jammers' warm-up
		if one, many := perRun(1), perRun(long); many != one {
			t.Fatalf("BatchRun allocates %.0f times per run at %d slots but %.0f at 1 slot: the slot loop allocates", many, long, one)
		}
	})
}

// freshSlot is the reference for Step's reused fault scratch: it Applies
// inner into a fresh zero fault.Slot and overwrites *f with the result, so
// nothing left in the caller's Slot can reach the slot.
type freshSlot struct{ inner fault.Injector }

func (r freshSlot) Name() string { return r.inner.Name() }

func (r freshSlot) Apply(slot int64, f *fault.Slot) {
	var g fault.Slot
	r.inner.Apply(slot, &g)
	*f = g
}

// TestFaultScratchDoesNotLeak checks that a burst or a lost ACK stays in
// its own slot: per-slot RunTrace outcomes and rewards under the reused
// scratch equal those of the fresh-Slot reference, over a schedule that has
// faulted slots followed by quiet ones.
func TestFaultScratchDoesNotLeak(t *testing.T) {
	const slots = 300
	inj := fault.Chain{
		fault.BurstNoise{Seed: 7, Prob: 0.4, Len: 1, Power: 1000},
		fault.AckLoss{Seed: 8, Prob: 0.3},
	}
	var burstThenQuiet, ackThenQuiet bool
	var prev fault.Slot
	for s := int64(0); s < slots; s++ {
		var f fault.Slot
		inj.Apply(s, &f)
		burstThenQuiet = burstThenQuiet || (prev.NoisePower > 0 && f.NoisePower == 0)
		ackThenQuiet = ackThenQuiet || (prev.AckLoss && !f.AckLoss)
		prev = f
	}
	if !burstThenQuiet || !ackThenQuiet {
		t.Fatalf("schedule lacks a faulted slot followed by a quiet one (burst %v, ack %v)", burstThenQuiet, ackThenQuiet)
	}

	cfg := env.DefaultConfig()
	model, err := core.NewModel(core.ParamsFromEnv(cfg))
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.MDPScheme(model, nil, cfg.Channels, cfg.SweepWidth)
	if err != nil {
		t.Fatal(err)
	}
	trace := func(faults fault.Injector) []env.SlotRecord {
		c := cfg
		c.Faults = faults
		e, err := env.New(c)
		if err != nil {
			t.Fatal(err)
		}
		_, records, err := env.RunTrace(e, scheme.NewAgent(), slots)
		if err != nil {
			t.Fatal(err)
		}
		return records
	}
	got, want := trace(inj), trace(freshSlot{inj})
	for i := range want {
		if got[i].Outcome != want[i].Outcome || got[i].Reward != want[i].Reward {
			t.Fatalf("slot %d: reused scratch gives %v/%v, fresh Slot gives %v/%v",
				i, got[i].Outcome, got[i].Reward, want[i].Outcome, want[i].Reward)
		}
	}
}
