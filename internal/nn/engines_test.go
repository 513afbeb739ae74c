package nn

import (
	"math/rand"
	"testing"
)

// Bitwise equivalence of the exact engine's two dense paths: the AVX
// microkernel (where the CPU has it) and the pure-Go blocked kernel must
// agree to the last bit on every shape, as every golden in the repo assumes.

// TestMatMulBatchFallbackShapeTails re-runs the exact engine's bitwise
// shape/tail sweep with the assembly microkernel disabled, so the pure-Go
// blocked path keeps its bit-identity contract even on machines where the
// default run takes the AVX path.
func TestMatMulBatchFallbackShapeTails(t *testing.T) {
	prev := useAVX
	useAVX = false
	defer func() { useAVX = prev }()

	rng := rand.New(rand.NewSource(23))
	fill := func(m *Matrix) {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
			if rng.Intn(4) == 0 {
				m.Data[i] = 0
			}
		}
	}
	for _, rows := range []int{1, 3, 4, 5, 7, 8, 9, 64} {
		for _, k := range []int{1, 3, 24, 47} {
			for _, cols := range []int{1, 3, 4, 5, 11, 48, 160} {
				a := NewMatrix(rows, k)
				b := NewMatrix(k, cols)
				fill(a)
				fill(b)
				got := NewMatrix(0, 0)
				if err := matMulBatchInto(got, a, b); err != nil {
					t.Fatalf("%dx%dx%d: %v", rows, k, cols, err)
				}
				want := NewMatrix(0, 0)
				if err := MatMulInto(want, a, b); err != nil {
					t.Fatalf("%dx%dx%d: %v", rows, k, cols, err)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%dx%dx%d element %d: %v != %v",
							rows, k, cols, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// FuzzForwardBatchEngines cross-checks the exact engine's asm path against
// its pure-Go path on random shapes and weights, bitwise.
func FuzzForwardBatchEngines(f *testing.F) {
	f.Add(int64(1), byte(4), byte(24), byte(48), byte(160))
	f.Add(int64(2), byte(1), byte(1), byte(0), byte(1))
	f.Add(int64(3), byte(5), byte(3), byte(17), byte(33))
	f.Add(int64(4), byte(64), byte(24), byte(0), byte(16))
	f.Add(int64(5), byte(7), byte(47), byte(31), byte(80))
	f.Fuzz(func(t *testing.T, seed int64, rowsB, kB, hiddenB, colsB byte) {
		rows := 1 + int(rowsB)%24
		k := 1 + int(kB)%40
		hidden := int(hiddenB) % 49 // 0 = single dense layer
		cols := 1 + int(colsB)%80
		rng := rand.New(rand.NewSource(seed))

		sizes := []int{k, cols}
		if hidden > 0 {
			sizes = []int{k, hidden, cols}
		}
		net, err := NewMLP(sizes, rng)
		if err != nil {
			t.Fatal(err)
		}

		x := NewMatrix(rows, k)
		for i := range x.Data {
			v := rng.NormFloat64()
			if rng.Intn(4) == 0 {
				v = 0
			}
			x.Data[i] = v
		}

		var es InferScratch
		exact := NewMatrix(0, 0)
		if err := net.ForwardBatch(exact, &es, x); err != nil {
			t.Fatal(err)
		}
		prevAVX := useAVX
		useAVX = false
		var es2 InferScratch
		exactScalar := NewMatrix(0, 0)
		err = net.ForwardBatch(exactScalar, &es2, x)
		useAVX = prevAVX
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact.Data {
			if exact.Data[i] != exactScalar.Data[i] {
				t.Fatalf("exact engine diverged at %d: asm %v != scalar %v",
					i, exact.Data[i], exactScalar.Data[i])
			}
		}
	})
}
