package rl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"ctjam/internal/nn"
)

// pinnedTrainDigests are the SHA-256 digests of the learner state after
// pinnedTrainSteps updates on the fixed replay set built by pinnedDQN: the
// online and target weights, the Adam step counter and both moment vectors,
// and every returned loss. They pin the DQN training arithmetic bit for bit,
// independently of the kernels it runs on; any change to the forward GEMM,
// the backward products, the loss or the optimizer that moves a single bit
// of a trained weight fails here. Regenerate only for a deliberate numeric
// change, never to absorb a kernel rewrite.
//
// The plain case trains on batches of 16, the shape core.DQNAgent uses; the
// Double DQN case on batches of 13, so the 8-row, 4-row and single-row GEMM
// blocks all run.
var pinnedTrainCases = []struct {
	name   string
	double bool
	batch  int
	digest string
}{
	{"dqn", false, 16, "7201fc670ec6b52ee7b9e3ce927ba037e697a2152f0482270e6a380bbf337f7d"},
	{"double", true, 13, "8eddcd2dfdc125b82fdfdaaca7c9c2ea6addc462de3705cbb0034fd2b4839b93"},
}

const pinnedTrainSteps = 240

// pinnedDQN builds the paper-shaped learner (3*I = 24 inputs, two hidden
// layers of 48, C*PL = 160 outputs) over a fixed replay set whose states mix
// one-hot-style zero entries with dense Gaussian values.
func pinnedDQN(t testing.TB, double bool, batch int) *DQN {
	t.Helper()
	cfg := DefaultDQNConfig(24, 160)
	cfg.BatchSize = batch
	cfg.WarmupSize = batch
	cfg.TargetSyncEvery = 50
	cfg.DoubleDQN = double
	cfg.Seed = 11
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := rand.New(rand.NewSource(29))
	state := func() []float64 {
		s := make([]float64, cfg.StateDim)
		for j := range s {
			switch gen.Intn(3) {
			case 0: // leave zero
			case 1:
				s[j] = 1
			default:
				s[j] = gen.NormFloat64()
			}
		}
		return s
	}
	for i := 0; i < 512; i++ {
		d.buffer.Push(Transition{
			State:  state(),
			Action: gen.Intn(cfg.NumActions),
			Reward: gen.NormFloat64(),
			Next:   state(),
			Done:   gen.Intn(8) == 0,
		})
	}
	return d
}

func writeFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashNetwork(h hash.Hash, n *nn.Network) {
	for _, p := range n.Params() {
		writeFloats(h, p.Value.Data)
	}
}

// TestDQNTrainBitsPinned trains the pinned learner and compares the digest
// of everything the updates touched against the committed value, with plain
// and Double DQN targets.
func TestDQNTrainBitsPinned(t *testing.T) {
	for _, tc := range pinnedTrainCases {
		d := pinnedDQN(t, tc.double, tc.batch)
		h := sha256.New()
		for i := 0; i < pinnedTrainSteps; i++ {
			loss, err := d.TrainStep()
			if err != nil {
				t.Fatal(err)
			}
			writeFloats(h, []float64{loss})
		}
		hashNetwork(h, d.online)
		hashNetwork(h, d.target)
		if err := d.opt.SaveAdam(h, d.online.Params()); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("%s: trained-state digest %s, pinned %s", tc.name, got, tc.digest)
		}
	}
}
