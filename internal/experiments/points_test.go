package experiments

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"ctjam/internal/metrics"
	"ctjam/internal/policy"
)

func pointOptions() Options {
	return Options{
		Slots:      200,
		Engine:     EngineMDP,
		TrainSlots: 200,
		Seed:       1,
		Workers:    2,
	}
}

func TestCachePointsSortedAndDeduplicated(t *testing.T) {
	o := pointOptions()
	all, err := CachePoints(o, IDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 115 {
		t.Errorf("full id set yields %d unique points, want 115", len(all))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key < all[j].Key }) {
		t.Error("CachePoints output is not sorted by key")
	}
	seen := make(map[string]bool)
	for _, sp := range all {
		if seen[sp.Key] {
			t.Errorf("duplicate key %s", sp.Key)
		}
		seen[sp.Key] = true
	}

	// All five metric panels of one sweep revisit exactly the same points.
	a, err := CachePoints(o, []string{"fig6a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachePoints(o, []string{"fig6a", "fig7a", "fig8a"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sibling metric panels added points: %d vs %d", len(a), len(b))
	}

	// Non-cache-backed experiments contribute nothing; unknown ids fail.
	none, err := CachePoints(o, []string{"stealth", "detect"})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("non-cache-backed ids yielded %d points", len(none))
	}
	if _, err := CachePoints(o, []string{"no-such-id"}); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("unknown id: err = %v, want ErrUnknownExperiment", err)
	}
}

func TestPointKeyMatchesCachePoints(t *testing.T) {
	o := pointOptions()
	specs, err := CachePoints(o, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("table1 yields %d points, want 2", len(specs))
	}
	for _, sp := range specs {
		if got := PointKey(o, Point{Config: sp.Config, Defense: sp.Defense}); got != sp.Key {
			t.Errorf("PointKey = %q, CachePoints key = %q", got, sp.Key)
		}
	}
}

func TestImportPointServesCacheHits(t *testing.T) {
	o := pointOptions()
	specs, err := CachePoints(o, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, len(specs))
	for i, sp := range specs {
		pts[i] = Point{Config: sp.Config, Defense: sp.Defense}
	}

	o1 := o
	o1.Cache = NewCache()
	want, err := EvaluatePoints(o1, pts)
	if err != nil {
		t.Fatal(err)
	}

	imported := NewCache()
	for i, sp := range specs {
		imported.ImportPoint(sp.Key, want[i])
	}
	// Re-importing an existing key is a no-op: results are pure functions of
	// the key, the first import stands.
	imported.ImportPoint(specs[0].Key, metrics.Counters{Slots: -1})

	o2 := o
	o2.Cache = imported
	got, err := EvaluatePoints(o2, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("imported cache served different counters:\ngot  %+v\nwant %+v", got, want)
	}
	if st := imported.Stats(); st.PointMisses != 0 {
		t.Errorf("evaluation against a fully imported cache computed %d points", st.PointMisses)
	}
}

// TestCacheWaitContextCancel pins the memo's wait contract on every cache
// layer: a waiter on an entry whose claimant never fills it (e.g. a lost
// distributed worker) gives up when its context ends instead of wedging.
func TestCacheWaitContextCancel(t *testing.T) {
	o := pointOptions()
	points, err := CachePoints(o, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	fields, err := CacheFieldSpecs(o, []string{"fig10a"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		claim func(*Cache) bool
		wait  func(Options) error
	}{
		{"point", func(c *Cache) bool {
			_, claimed := c.points.claim(points[0].Key)
			return claimed
		}, func(o Options) error {
			_, err := EvaluatePoints(o, []Point{{Config: points[0].Config, Defense: points[0].Defense}})
			return err
		}},
		{"scheme", func(c *Cache) bool {
			_, claimed := c.schemes.claim("stuck-key")
			return claimed
		}, func(o Options) error {
			_, err := o.Cache.scheme(o.Context, "stuck-key", func() (*policy.Scheme, []byte, error) {
				t.Error("second builder invoked for an in-flight key")
				return nil, nil, nil
			})
			return err
		}},
		{"field", func(c *Cache) bool {
			_, claimed := c.fields.claim(fields[0].Key)
			return claimed
		}, func(o Options) error {
			_, err := EvaluateFieldSpecs(o, []FieldSpec{fields[0].Spec})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := o
			o.Cache = NewCache()
			// The claimant below never fills its entry.
			if !tc.claim(o.Cache) {
				t.Fatal("first claim not granted")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			o.Context = ctx
			if err := tc.wait(o); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("waiting on a dead claimant: err = %v, want deadline exceeded", err)
			}
		})
	}
}

// TestMemoContract pins the memo's remaining rules: each key is claimed
// once, a filled entry wins over an expired context, and an import of a
// known key — resolved or in flight — is a no-op.
func TestMemoContract(t *testing.T) {
	m := newMemo[int]("value")
	e, claimed := m.claim("k")
	if !claimed {
		t.Fatal("first claim not granted")
	}
	if _, again := m.claim("k"); again {
		t.Fatal("key claimed twice")
	}
	if m.put("k", 7) {
		t.Fatal("import over an in-flight key installed a value")
	}
	e.fill(3, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if v, err := m.wait(ctx, e); v != 3 || err != nil {
		t.Fatalf("filled entry under an expired context: %d, %v", v, err)
	}
	if m.put("k", 7) {
		t.Fatal("import over a resolved key installed a value")
	}
	if !m.put("j", 5) {
		t.Fatal("import of a new key was dropped")
	}
	if v, ok := m.get("j"); !ok || v != 5 {
		t.Fatalf("imported value = %d, %v", v, ok)
	}
	if got := m.resolved(); len(got) != 2 || got["k"] != 3 || got["j"] != 5 {
		t.Fatalf("resolved = %v", got)
	}
	if m.hits.Load() != 1 || m.misses.Load() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1 (imports are not lookups)", m.hits.Load(), m.misses.Load())
	}
}
