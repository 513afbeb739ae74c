package iot

import (
	"testing"

	"ctjam/internal/fault"
)

// noAllocFaults is the faulted variant's injector chain for the cluster
// slot gate.
func noAllocFaults() fault.Injector {
	return fault.Chain{
		fault.BurstNoise{Seed: 3, Prob: 0.3, Len: 4, Power: 12},
		fault.AckLoss{Seed: 4, Prob: 0.1},
		fault.ClockDrift{Seed: 5, Max: 0.02, Period: 50},
	}
}

// TestRunSlotNoAllocs is the field engine's half of the slot-level
// contract: at steady state one cluster slot allocates nothing, with or
// without fault injection.
func TestRunSlotNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults fault.Injector
	}{
		{"faults=nil", nil},
		{"faults=burst+ack+drift", noAllocFaults()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Faults = tc.faults
			c, err := newCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			slot := func() {
				if _, err := c.runSlot(i*5%cfg.Channels, i%len(cfg.TxPowers), i%3 == 0); err != nil {
					t.Fatal(err)
				}
				i++
			}
			// Prime past the jammer's warm-up and the span buffer's growth.
			for i < 200 {
				slot()
			}
			if avg := testing.AllocsPerRun(1000, slot); avg != 0 {
				t.Fatalf("runSlot allocates %.1f times per slot at steady state", avg)
			}
		})
	}
}

// freshSlot is the reference for the cluster's reused fault scratch: it
// Applies inner into a fresh zero fault.Slot and overwrites *f with the
// result, so nothing left in the caller's Slot can reach the slot.
type freshSlot struct{ inner fault.Injector }

func (r freshSlot) Name() string { return r.inner.Name() }

func (r freshSlot) Apply(slot int64, f *fault.Slot) {
	var g fault.Slot
	r.inner.Apply(slot, &g)
	*f = g
}

// TestFaultScratchDoesNotLeak checks that a burst, a lost ACK or a drift
// excursion stays in its own slot: per-slot SlotStats under the reused
// scratch equal those of the fresh-Slot reference, over a schedule that has
// faulted slots followed by quiet ones.
func TestFaultScratchDoesNotLeak(t *testing.T) {
	const slots = 120
	inj := fault.Chain{
		fault.BurstNoise{Seed: 7, Prob: 0.4, Len: 1, Power: 1000},
		fault.AckLoss{Seed: 8, Prob: 0.3},
		fault.ClockDrift{Seed: 9, Max: 0.3, Period: 5},
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

	run := func(faults fault.Injector) []SlotStats {
		cfg := DefaultConfig()
		cfg.Faults = faults
		c, err := newCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]SlotStats, slots)
		for i := range out {
			if out[i], err = c.runSlot(i/7%cfg.Channels, len(cfg.TxPowers)-1, i%7 == 0); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	got, want := run(inj), run(freshSlot{inj})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: reused scratch gives %+v, fresh Slot gives %+v", i, got[i], want[i])
		}
	}
}
