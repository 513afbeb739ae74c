package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden-trace regression tests: experiments at a small fixed-seed budget
// must keep producing byte-identical JSON results. The engine is fully
// deterministic (counter-based RNG streams, worker-count-independent
// collection), so any diff here is a behavioral change that must be either
// fixed or consciously accepted by regenerating with
//
//	go test ./internal/experiments -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden experiment traces")

// goldenOptions is deliberately tiny: golden tests pin exact numbers, so
// they only need enough slots to exercise the pipeline, not to converge.
func goldenOptions() Options {
	return Options{
		Slots:      2000,
		Engine:     EngineMDP,
		TrainSlots: 2000,
		FieldSlots: 60,
		Trials:     60,
		Seed:       1,
		Workers:    3,
	}
}

func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden trace %s.\ngot:\n%s\nwant:\n%s\nRun with -update if the change is intended.",
			name, path, got, want)
	}
}

func TestGoldenFig6a(t *testing.T) {
	res, err := Run("fig6a", goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6a", res)
}

func TestGoldenFig8b(t *testing.T) {
	res, err := Run("fig8b", goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8b", res)
}

func TestGoldenTable1(t *testing.T) {
	res, err := Run("table1", goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1", res)
}

func TestGoldenFig11a(t *testing.T) {
	res, err := Run("fig11a", goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig11a", res)
}

func TestGoldenFig11b(t *testing.T) {
	res, err := Run("fig11b", goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig11b", res)
}

// TestGoldenTrain pins the DQN training pipeline end to end: the train id
// runs core.DQNAgent online for TrainSlots slots, so its reward and post-
// training ST move if a single bit of any trained weight does.
func TestGoldenTrain(t *testing.T) {
	res, err := Run("train", goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "train", res)
}

func TestGoldenStealth(t *testing.T) {
	res, err := Run("stealth", goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stealth", res)
}
