package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"ctjam/internal/core"
	"ctjam/internal/policy"
	"ctjam/internal/rl"
	"ctjam/internal/serve"
)

// The served network is the paper's: 24 features -> 48 -> 48 -> 160 actions.
const (
	serveDim     = 24
	serveActions = 160
)

// One serve-mixed pass is a fixed amount of closed-loop work on two loopback
// connections: the lone client streams lonePerPass single-state session
// lines while the batch client posts batchPerPass decide bodies of batchSize
// states. The counts are sized so both clients finish at about the same time
// at the seed commit, so the pass time moves with either path.
const (
	lonePerPass  = 1500
	batchPerPass = 1500
	batchSize    = 64
	// poolStates is the fixed probe set every request draws its states from;
	// every served action is checked against local DecideBatch on it.
	poolStates = 1024
	warmLone   = 200
	warmBatch  = 20
	// forwardReps is how many DecideBatch calls each nn probe times.
	forwardReps = 500
)

// The two clients use two model names for the same checkpoint, so the
// server's per-model statistics separate the batcher path (lone) from the
// direct path (gateway).
const (
	loneModel  = "lone"
	batchModel = "gateway"
)

type serveWorkload struct {
	seed        int64
	dir         string
	checkpoint  []byte
	pool        []float64 // poolStates x serveDim
	want        []int     // local DecideBatch actions for pool
	local       policy.Policy
	loneLines   [][]byte
	batchBodies [][]byte

	rig       *serveRig
	before    *serveStats
	requestID atomic.Int64
}

// serveRig is one running in-process server and its two client connections.
type serveRig struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	lone   *http.Client
	batch  *http.Client
}

func newServeWorkload(seed int64) (workload, error) {
	w := &serveWorkload{seed: seed, dir: filepath.Join(outDir, fmt.Sprintf("serve-%d", os.Getpid()))}
	cfg := rl.DefaultDQNConfig(serveDim, serveActions)
	cfg.Hidden = []int{48, 48}
	cfg.Seed = seed
	d, err := rl.NewDQN(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		return nil, err
	}
	w.checkpoint = buf.Bytes()

	snap, err := core.SnapshotFromCheckpoint(bytes.NewReader(w.checkpoint))
	if err != nil {
		return nil, err
	}
	if w.local, err = policy.NewDQN("local", snap); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	w.pool = randStates(rng, poolStates, serveDim)
	w.want = make([]int, poolStates)
	if err := w.local.DecideBatch(w.pool, w.want); err != nil {
		return nil, err
	}
	for i := 0; i < poolStates; i++ {
		b, err := json.Marshal(serve.DecideRequest{State: w.state(i)})
		if err != nil {
			return nil, err
		}
		w.loneLines = append(w.loneLines, append(b, '\n'))
	}
	for j := 0; j < poolStates/batchSize; j++ {
		states := make([][]float64, batchSize)
		for i := range states {
			states[i] = w.state(j*batchSize + i)
		}
		b, err := json.Marshal(serve.DecideRequest{States: states})
		if err != nil {
			return nil, err
		}
		w.batchBodies = append(w.batchBodies, b)
	}
	return w, nil
}

func (w *serveWorkload) state(i int) []float64 { return w.pool[i*serveDim : (i+1)*serveDim] }

func (w *serveWorkload) layers() []string { return []string{"serve", "nn", "runtime", "trace"} }

// setup writes the checkpoint, starts a server at the ctjam-serve defaults
// on a loopback port, and checks it answers.
func (w *serveWorkload) setup(tr *Tracer) error {
	w.closeRig()
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(w.dir, "model.ctdq")
	if err := os.WriteFile(path, w.checkpoint, 0o644); err != nil {
		return err
	}
	sp := tr.begin(0, 0, "serve.New", "serve")
	srv, err := serve.New(serve.Config{
		Models: []serve.ModelSpec{
			{Name: loneModel, Path: path},
			{Name: batchModel, Path: path},
		},
		Batching: true,
		Window:   serve.DefaultWindow,
		MaxBatch: serve.DefaultMaxBatch,
		MaxBody:  serve.DefaultMaxBody,
		PProf:    true,
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sp = tr.begin(0, 0, "serve.Server.Handler", "serve")
	h := srv.Handler()
	tr.end(sp)
	r := &serveRig{
		srv:    srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		lone:   oneConnClient(),
		batch:  oneConnClient(),
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	w.rig = r
	return tr.do(0, "GET /v1/healthz", "serve", func() error {
		resp, err := r.batch.Get(r.base + "/v1/healthz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
		return nil
	})
}

// oneConnClient keeps one loopback connection alive for all its requests.
// The timeout, far above a pass's length, turns a hung server into an error
// instead of a run that never ends.
func oneConnClient() *http.Client {
	return &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func (w *serveWorkload) closeRig() {
	r := w.rig
	if r == nil {
		return
	}
	w.rig = nil
	r.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		r.hs.Close()
	}
	<-r.served
	r.lone.CloseIdleConnections()
	r.batch.CloseIdleConnections()
}

func (w *serveWorkload) close() {
	w.closeRig()
	os.RemoveAll(w.dir)
}

// warm runs a short untimed burst on both paths, then snapshots the server
// statistics the run's per-layer metrics are measured from.
func (w *serveWorkload) warm() error {
	var lp, bp clientResult
	if err := parallelDo(
		func() error { return w.runLone(nil, warmLone, &lp) },
		func() error { return w.runBatch(nil, warmBatch, &bp) },
	); err != nil {
		return err
	}
	if lp.failed+bp.failed > 0 {
		return fmt.Errorf("warm-up: %d lone and %d batch responses wrong", lp.failed, bp.failed)
	}
	st, err := w.stats(nil)
	w.before = st
	return err
}

// clientResult is what one client measured in a pass.
type clientResult struct {
	lat       []float64 // ms per request
	elapsed   time.Duration
	attempted int
	failed    int
}

func (w *serveWorkload) pass(tr *Tracer) (*passResult, error) {
	var lone, batch clientResult
	err := parallelDo(
		func() error { return w.runLone(tr, lonePerPass, &lone) },
		func() error { return w.runBatch(tr, batchPerPass, &batch) },
	)
	if err != nil {
		return nil, err
	}
	p := &passResult{
		attempted: lone.attempted + batch.attempted,
		failed:    lone.failed + batch.failed,
		samples:   map[string][]float64{"lone": lone.lat, "batch": batch.lat},
		counts: map[string]float64{
			"lone_s":  lone.elapsed.Seconds(),
			"batch_s": batch.elapsed.Seconds(),
		},
	}
	if tr != nil {
		n1, n64, err := w.forwardProbes(tr)
		if err != nil {
			return nil, err
		}
		p.counts["nn.forward_n1_us"] = n1
		p.counts["nn.forward_n64_us"] = n64
		if _, err := w.stats(tr); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runLone streams n single-state lines over one /v1/session connection, one
// at a time, like a link deciding each slot. Traced, the client is a root
// span with one child span per request.
func (w *serveWorkload) runLone(tr *Tracer, n int, res *clientResult) error {
	parent := tr.begin(0, 0, "lone client", "serve")
	defer tr.end(parent)
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, w.rig.base+"/v1/models/"+loneModel+"/session", pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	t0 := time.Now()
	resp, err := w.rig.lone.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		pw.Close()
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("session: status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	start := rand.New(rand.NewSource(w.seed + int64(n))).Intn(poolStates)
	for i := 0; i < n; i++ {
		k := (start + i) % poolStates
		sp := tr.begin(parent, w.requestID.Add(1), "POST /v1/models/lone/session line", "serve")
		t := time.Now()
		if _, err := pw.Write(w.loneLines[k]); err != nil {
			return err
		}
		var out serve.DecideResponse
		if err := dec.Decode(&out); err != nil {
			return fmt.Errorf("session line %d: %w", i, err)
		}
		res.lat = append(res.lat, float64(time.Since(t))/float64(time.Millisecond))
		tr.end(sp)
		res.attempted++
		if out.Error != "" || out.Action == nil || *out.Action != w.want[k] {
			res.failed++
		}
	}
	res.elapsed = time.Since(t0)
	return nil
}

// runBatch posts n decide bodies of batchSize states, one at a time, like a
// gateway deciding for batchSize links at once.
func (w *serveWorkload) runBatch(tr *Tracer, n int, res *clientResult) error {
	parent := tr.begin(0, 0, "batch client", "serve")
	defer tr.end(parent)
	url := w.rig.base + "/v1/models/" + batchModel + "/decide"
	start := rand.New(rand.NewSource(w.seed - int64(n))).Intn(len(w.batchBodies))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		b := (start + i) % len(w.batchBodies)
		sp := tr.begin(parent, w.requestID.Add(1), "POST /v1/models/gateway/decide", "serve")
		t := time.Now()
		resp, err := w.rig.batch.Post(url, "application/json", bytes.NewReader(w.batchBodies[b]))
		if err != nil {
			return err
		}
		var out serve.DecideResponse
		derr := json.NewDecoder(resp.Body).Decode(&out)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		res.lat = append(res.lat, float64(time.Since(t))/float64(time.Millisecond))
		tr.end(sp)
		res.attempted++
		if derr != nil || resp.StatusCode != http.StatusOK || !w.batchMatches(b, out.Actions) {
			res.failed++
		}
	}
	res.elapsed = time.Since(t0)
	return nil
}

func (w *serveWorkload) batchMatches(body int, actions []int) bool {
	if len(actions) != batchSize {
		return false
	}
	for i, a := range actions {
		if a != w.want[body*batchSize+i] {
			return false
		}
	}
	return true
}

// forwardProbes times policy.Policy.DecideBatch on the served checkpoint at
// batch sizes 1 and batchSize, in microseconds per call.
func (w *serveWorkload) forwardProbes(tr *Tracer) (n1, n64 float64, err error) {
	actions := make([]int, batchSize)
	probe := func(n int) (float64, error) {
		var d time.Duration
		err := tr.probe(0, fmt.Sprintf("policy.Policy.DecideBatch n=%d", n), "nn", func() error {
			t := time.Now()
			for r := 0; r < forwardReps; r++ {
				if err := w.local.DecideBatch(w.pool[:n*serveDim], actions[:n]); err != nil {
					return err
				}
			}
			d = time.Since(t)
			return nil
		})
		return float64(d) / float64(time.Microsecond) / forwardReps, err
	}
	if n1, err = probe(1); err != nil {
		return 0, 0, err
	}
	n64, err = probe(batchSize)
	return n1, n64, err
}

// serveStats is the part of GET /v1/stats the benchmark reads.
type serveStats struct {
	Models map[string]struct {
		Latency struct {
			Count   float64          `json:"count"`
			MeanUS  float64          `json:"mean_us"`
			Buckets map[string]int64 `json:"buckets"`
		} `json:"latency_us"`
		Batch struct {
			Flushes       float64 `json:"flushes"`
			FlushesWindow float64 `json:"flushes_window"`
			MeanFill      float64 `json:"mean_fill"`
			Direct        float64 `json:"direct"`
		} `json:"batch"`
	} `json:"models"`
}

func (w *serveWorkload) stats(tr *Tracer) (*serveStats, error) {
	var st serveStats
	err := tr.probe(0, "GET /v1/stats", "serve", func() error {
		resp, err := w.rig.batch.Get(w.rig.base + "/v1/stats")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("stats: status %d", resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(&st)
	})
	if err != nil {
		return nil, err
	}
	if _, ok := st.Models[loneModel]; !ok {
		return nil, errors.New("stats: lone model missing")
	}
	return &st, nil
}

// bucketDiff returns the lone model's latency histogram accumulated between
// two stats snapshots, as ascending (upper edge, count) pairs.
func bucketDiff(a, b map[string]int64) ([][2]float64, error) {
	var out [][2]float64
	for k, n := range b {
		edge, err := strconv.ParseFloat(k, 64)
		if err != nil {
			return nil, fmt.Errorf("stats bucket %q: %w", k, err)
		}
		if d := n - a[k]; d > 0 {
			out = append(out, [2]float64{edge, float64(d)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out, nil
}

// bucketQuantile interpolates the q-quantile inside the power-of-two
// histogram bucket that holds it (bucket (e/2, e] for upper edge e).
func bucketQuantile(bs [][2]float64, q float64) float64 {
	var n float64
	for _, b := range bs {
		n += b[1]
	}
	rank := q * n
	var cum float64
	for _, b := range bs {
		if cum+b[1] >= rank {
			lo := b[0] / 2
			if b[0] <= 1 {
				lo = 0
			}
			return lo + (b[0]-lo)*(rank-cum)/b[1]
		}
		cum += b[1]
	}
	return 0
}

func (w *serveWorkload) report(m *metricSet, plain, traced []*passResult) error {
	pooled := func(ps []*passResult, client string) []float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.samples[client]...)
		}
		return xs
	}
	lone, batch := pooled(plain, "lone"), pooled(plain, "batch")
	loneP50 := median(lone)
	loneP99, err := quantileAt(lone, 0.99)
	if err != nil {
		return fmt.Errorf("lone_p99_ms: %w", err)
	}
	batchP99, err := quantileAt(batch, 0.99)
	if err != nil {
		return fmt.Errorf("batch_p99_ms: %w", err)
	}
	m.set("lone_p50_ms", loneP50, "ms")
	m.set("lone_p99_ms", loneP99, "ms")
	m.set("lone_samples", float64(len(lone)), "count")
	m.set("lone_decisions_per_s", median(collect(plain, func(p *passResult) float64 { return lonePerPass / p.counts["lone_s"] })), "1/s")
	m.set("batch_states_per_s", median(collect(plain, func(p *passResult) float64 {
		return batchPerPass * batchSize / p.counts["batch_s"]
	})), "1/s")
	m.set("batch_p99_ms", batchP99, "ms")
	m.set("batch_samples", float64(len(batch)), "count")
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"lone", lone}, {"batch", batch}} {
		tl, err := tail(t.xs)
		if err != nil {
			return err
		}
		fmt.Printf("%s latency: %s %.4f ms over %d requests\n", t.name, tl.Label, tl.Value, tl.N)
	}

	after, err := w.stats(nil)
	if err != nil {
		return err
	}
	bl, al := w.before.Models[loneModel], after.Models[loneModel]
	count := al.Latency.Count - bl.Latency.Count
	if count <= 0 {
		return errors.New("stats: no lone decisions recorded")
	}
	m.set("serve.decide_mean_us", (al.Latency.MeanUS*al.Latency.Count-bl.Latency.MeanUS*bl.Latency.Count)/count, "us")
	bs, err := bucketDiff(bl.Latency.Buckets, al.Latency.Buckets)
	if err != nil {
		return err
	}
	m.set("serve.decide_p99_us", bucketQuantile(bs, 0.99), "us")
	m.set("serve.transport_p50_us", loneP50*1000-bucketQuantile(bs, 0.50), "us")
	flushes := al.Batch.Flushes - bl.Batch.Flushes
	if flushes <= 0 {
		return errors.New("stats: the batcher never flushed")
	}
	m.set("serve.mean_fill", (al.Batch.MeanFill*al.Batch.Flushes-bl.Batch.MeanFill*bl.Batch.Flushes)/flushes, "states")
	m.set("serve.window_flush_frac", (al.Batch.FlushesWindow-bl.Batch.FlushesWindow)/flushes, "frac")
	var direct float64
	for name, a := range after.Models {
		direct += a.Batch.Direct - w.before.Models[name].Batch.Direct
	}
	m.set("serve.direct_requests", direct, "count")
	if len(traced) > 0 {
		m.set("nn.forward_n1_us", median(collect(traced, func(p *passResult) float64 { return p.counts["nn.forward_n1_us"] })), "us")
		m.set("nn.forward_n64_us", median(collect(traced, func(p *passResult) float64 { return p.counts["nn.forward_n64_us"] })), "us")
	}
	return nil
}
