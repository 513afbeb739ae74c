package serve

import (
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

// newTwoModelServer serves two checkpoints, "prod" (the default) and
// "canary", so tests exercise both the default and the named routes.
func newTwoModelServer(t testing.TB) *Server {
	t.Helper()
	dir := t.TempDir()
	prod := filepath.Join(dir, "prod.ctdq")
	canary := filepath.Join(dir, "canary.ctdq")
	writeLearnerFile(t, prod, 11)
	writeLearnerFile(t, canary, 12)
	srv, err := New(Config{
		Models: []ModelSpec{
			{Name: "prod", Path: prod},
			{Name: "canary", Path: canary},
		},
		Batching: true,
		MaxBatch: 8,
		Window:   100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestRunLoadRejectsBadConfig(t *testing.T) {
	bad := []LoadConfig{
		{},
		{Clients: 1, StateDim: testStateDim, Duration: time.Second, Mode: "udp"},
		{Clients: 0, StateDim: testStateDim, Duration: time.Second, Mode: "http"},
		{Clients: 1, StateDim: 0, Duration: time.Second, Mode: "http"},
		{Clients: 1, StateDim: testStateDim, Duration: 0, Mode: "http"},
	}
	for _, cfg := range bad {
		if _, err := RunLoad(cfg); err == nil {
			t.Errorf("RunLoad(%+v) accepted a bad config", cfg)
		}
	}
}

// TestRunLoadModes drives the generator briefly against a live server in both
// modes, on both models: every decision must succeed and be counted.
func TestRunLoadModes(t *testing.T) {
	srv := newTwoModelServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, mode := range []string{"http", "session"} {
		for _, model := range []string{"", "canary"} {
			res, err := RunLoad(LoadConfig{
				BaseURL:  ts.URL,
				Model:    model,
				Mode:     mode,
				Clients:  2,
				Duration: 150 * time.Millisecond,
				StateDim: testStateDim,
				Seed:     5,
			})
			if err != nil {
				t.Fatalf("mode %q model %q: %v", mode, model, err)
			}
			if res.Errors != 0 {
				t.Errorf("mode %q model %q: %d client errors", mode, model, res.Errors)
			}
			if res.Decisions == 0 {
				t.Errorf("mode %q model %q: no decisions served", mode, model)
			}
			if res.PerSec() <= 0 {
				t.Errorf("mode %q model %q: PerSec() = %v with %d decisions", mode, model, res.PerSec(), res.Decisions)
			}
		}
	}
	if (LoadResult{}).PerSec() != 0 {
		t.Error("zero-valued LoadResult should report 0 decisions/s")
	}
}

// TestRunLoadReportsClientErrors points the generator at a model the server
// does not have: clients must fail and be counted, not hang or panic.
func TestRunLoadReportsClientErrors(t *testing.T) {
	srv := newTwoModelServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := RunLoad(LoadConfig{
		BaseURL:  ts.URL,
		Model:    "nonesuch",
		Mode:     "http",
		Clients:  2,
		Duration: 100 * time.Millisecond,
		StateDim: testStateDim,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Error("unknown model produced no client errors")
	}
	if res.Decisions != 0 {
		t.Errorf("unknown model served %d decisions", res.Decisions)
	}
}

func TestServerReloadAll(t *testing.T) {
	srv := newTwoModelServer(t)
	before := srv.Registry().Lookup("canary").Reloads()
	if err := srv.ReloadAll(); err != nil {
		t.Fatal(err)
	}
	for _, name := range srv.Registry().Names() {
		m := srv.Registry().Lookup(name)
		if m.Reloads() != before+1 {
			t.Errorf("model %q reloads = %d, want %d", name, m.Reloads(), before+1)
		}
	}
}
