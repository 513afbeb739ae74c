// Command benchmark is ctjam's repository benchmark: one command that runs a
// named workload end to end, checks that its outputs are correct, and prints
// every metric by name and unit. BENCHMARK.json at the repository root
// defines the workloads and metrics; README.md in this directory explains how
// to run it and how to read the results.
//
//	benchmark --workload experiments-quick --seed 1 --seconds 20 --trace 0
//	benchmark compare RESULTS_DIR [HEAD_RESULTS_DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end_to_end metrics untraced,
// the per_layer metrics with --trace 1. Every run also writes its full record
// (all metrics plus the host fingerprint) under .bench_build/results, and a
// traced run its spans under .bench_build/trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind, inside the checkout.
const outDir = ".bench_build"

// setupReps is how many times a run repeats its set-up; setup_s is their
// median, so one slow start does not move the metric.
const setupReps = 15

// workload is one named benchmark workload.
type workload interface {
	// setup does the work that precedes the timed part, recording spans
	// around its layer calls on a non-nil tracer. It is called setupReps
	// times; only the state of the last call is kept.
	setup(tr *Tracer) error
	// pass runs one timed unit of work. With a non-nil tracer it records
	// spans around every call into a layer.
	pass(tr *Tracer) (*passResult, error)
	// report adds the workload's own metrics, computed from its untraced
	// and traced passes, to m.
	report(m *metricSet, untraced, traced []*passResult) error
	// layers names the per_layer metric prefixes the workload exercises;
	// the others read 0 for it.
	layers() []string
	close()
}

// warmer is a workload with untimed work to do between set-up and the
// first pass, such as opening connections.
type warmer interface {
	warm() error
}

// passResult is what one pass measured.
type passResult struct {
	wall      time.Duration
	attempted int
	failed    int
	peakHeap  uint64
	cpu       time.Duration
	steal     time.Duration
	allocs    uint64
	gcPause   time.Duration
	gcCycles  uint32
	spans     []Span
	// counts are exact per-pass work counts (solves, points, runs...).
	counts map[string]float64
	// samples are per-operation latencies in ms, by client.
	samples map[string][]float64
}

var workloads = map[string]func(seed int64) (workload, error){
	"experiments-quick": newQuickWorkload,
	"sweeps-paper":      newSweepsWorkload,
	"serve-mixed":       newServeWorkload,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	def, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(sortedNames(workloads), ", "))
	}
	stamp, err := stampHost()
	if err != nil {
		return err
	}
	w, err := mk(*seed)
	if err != nil {
		return err
	}
	defer w.close()

	spans := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
	m, err := measure(w, time.Duration(*seconds)*time.Second, *trace == 1, spans)
	if err != nil {
		return err
	}
	want := def.EndToEnd
	if *trace == 1 {
		m.zeroMissing(def.PerLayer, w.layers())
		want = def.PerLayer
	}
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s; code %s %s\n", stamp.Host.CPU, stamp.Host.NProc,
		stamp.Host.GOMAXPROCS, stamp.Host.Go, stamp.Commit, stamp.Source)
	for _, v := range m.list {
		fmt.Printf("%-28s %14.6g %s\n", v.Name, v.Value, v.Unit)
	}
	out, err := m.pick(want)
	if err != nil {
		return err
	}
	rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace, Stamp: stamp, Result: out, All: m.list, PassWalls: m.passWalls, PassSteal: m.passSteal}
	if err := rec.save(); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measure sets the workload up setupReps times, then runs passes until the
// time is spent, alternating untraced and traced passes in a traced run.
func measure(w workload, d time.Duration, traced bool, spanFile string) (*metricSet, error) {
	var setups []float64
	var setupTrace *Tracer
	if traced {
		setupTrace = newTracer()
	}
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(setupTrace); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if wm, ok := w.(warmer); ok {
		if err := wm.warm(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	var plain, withTrace []*passResult
	start := time.Now()
	for len(plain) == 0 || (traced && len(withTrace) == 0) || time.Since(start) < d {
		var tr *Tracer
		if traced && len(withTrace) < len(plain) {
			tr = newTracer()
		}
		p, err := timedPass(w, tr)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, p)
		}
	}

	m := &metricSet{}
	for _, p := range append(append([]*passResult(nil), plain...), withTrace...) {
		m.attempted += p.attempted
		m.failed += p.failed
	}
	m.correct = m.failed == 0
	m.passWalls = collect(plain, func(p *passResult) float64 { return p.wall.Seconds() })
	m.passSteal = collect(plain, func(p *passResult) float64 { return p.steal.Seconds() })
	m.set("passes", float64(len(plain)), "count")
	m.set("setup_s", median(setups), "s")
	m.set("wall_s", median(collect(plain, func(p *passResult) float64 { return p.busyWall().Seconds() })), "s")
	m.set("wall_raw_s", median(m.passWalls), "s")
	m.set("steal_frac", sum(m.passSteal)/(sum(m.passWalls)*float64(runtime.NumCPU())), "frac")
	m.set("peak_heap_mb", median(collect(plain, func(p *passResult) float64 { return float64(p.peakHeap) / (1 << 20) })), "MB")
	m.set("failed_frac", float64(m.failed)/float64(max(m.attempted, 1)), "frac")
	procs := float64(runtime.GOMAXPROCS(0))
	m.set("runtime.cpu_util", median(collect(plain, func(p *passResult) float64 {
		return p.cpu.Seconds() / (p.wall.Seconds() * procs)
	})), "frac")
	m.set("runtime.alloc_mb", median(collect(plain, func(p *passResult) float64 { return float64(p.allocs) / (1 << 20) })), "MB")
	m.set("runtime.gc_pause_s", median(collect(plain, func(p *passResult) float64 { return p.gcPause.Seconds() })), "s")
	m.set("runtime.gc_cycles", median(collect(plain, func(p *passResult) float64 { return float64(p.gcCycles) })), "count")
	if traced {
		// Probe spans time calls the untraced pass does not make; the
		// overhead compares the rest of the traced pass with the untraced one.
		tw := median(collect(withTrace, func(p *passResult) float64 { return (p.busyWall() - probeTime(p.spans)).Seconds() }))
		m.set("trace.overhead_frac", tw/m.get("wall_s")-1, "frac")
		if err := reportSelfTimes(m, withTrace); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
			return nil, err
		}
		passes := make([][]Span, len(withTrace))
		for i, p := range withTrace {
			passes[i] = p.spans
		}
		if err := writeSpans(spanFile, setupTrace.snapshot(), passes); err != nil {
			return nil, err
		}
	}
	if err := w.report(m, plain, withTrace); err != nil {
		return nil, err
	}
	return m, nil
}

// busyWall is the pass's wall time less the CPU time the hypervisor gave to
// other guests while this machine's CPUs wanted to run, spread over the
// CPUs: the wall time the pass takes when the virtual machine gets the CPUs
// it asks for. Steal varies with the neighbours, not with ctjam.
func (p *passResult) busyWall() time.Duration {
	return p.wall - p.steal/time.Duration(runtime.NumCPU())
}

// reportSelfTimes adds each layer's median self time in the traced passes,
// and checks that the self times add up to the time the root spans cover:
// the traced wall time when a pass is one root span, and the clients' summed
// busy time when concurrent clients each own a root.
func reportSelfTimes(m *metricSet, traced []*passResult) error {
	layers := map[string][]float64{}
	var walls, spanned []float64
	for i, p := range traced {
		by, total := selfTimes(p.spans)
		for l, d := range by {
			for len(layers[l]) < i {
				layers[l] = append(layers[l], 0)
			}
			layers[l] = append(layers[l], d.Seconds())
		}
		var sum time.Duration
		for _, d := range by {
			sum += d
		}
		if diff := sum - total; diff > time.Millisecond || diff < -time.Millisecond {
			return fmt.Errorf("layer self times sum to %v, root spans cover %v", sum, total)
		}
		walls = append(walls, p.wall.Seconds())
		spanned = append(spanned, total.Seconds())
	}
	m.set("trace.wall_s", median(walls), "s")
	m.set("trace.root_spans_s", median(spanned), "s")
	for _, l := range sortedNames(layers) {
		xs := layers[l]
		for len(xs) < len(traced) {
			xs = append(xs, 0)
		}
		m.set("self."+l+"_s", median(xs), "s")
	}
	return nil
}

// probeTime sums the duration of probe spans.
func probeTime(spans []Span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Probe && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return d
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func collect(ps []*passResult, f func(*passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// timedPass runs one pass from a collected heap and measures its wall time,
// CPU time, allocation, GC work and peak live heap.
func timedPass(w workload, tr *Tracer) (*passResult, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	st0 := stealTime()
	hs := startHeapSampler()
	t0 := time.Now()
	p, err := w.pass(tr)
	wall := time.Since(t0)
	peak := hs.finish()
	if err != nil {
		return nil, err
	}
	p.wall = wall
	p.cpu = cpuTime() - cpu0
	p.steal = stealTime() - st0
	runtime.ReadMemStats(&ms1)
	p.peakHeap = peak
	p.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.gcCycles = ms1.NumGC - ms0.NumGC
	if tr != nil {
		p.spans = tr.snapshot()
	}
	return p, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the time the hypervisor ran other guests while this
// machine's CPUs wanted to run, summed over CPUs (the steal column of
// /proc/stat); 0 where the kernel does not report it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// userHZ is the kernel's USER_HZ, the unit of /proc/stat, fixed at 100 on
// Linux.
const userHZ = 100

// heapSampler tracks the peak of live heap objects while a pass runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak it saw.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// metricSet is a run's metrics in the order they were set.
type metricSet struct {
	correct           bool
	attempted, failed int
	list              []metricValue
	passWalls         []float64
	passSteal         []float64
}

type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) set(name string, v float64, unit string) {
	for i := range m.list {
		if m.list[i].Name == name {
			m.list[i] = metricValue{name, v, unit}
			return
		}
	}
	m.list = append(m.list, metricValue{name, v, unit})
}

func (m *metricSet) get(name string) float64 {
	for _, v := range m.list {
		if v.Name == name {
			return v.Value
		}
	}
	return 0
}

func (m *metricSet) has(name string) bool {
	for _, v := range m.list {
		if v.Name == name {
			return true
		}
	}
	return false
}

// zeroMissing sets every per-layer metric of a layer the workload does not
// exercise to 0: the layer did no work in it.
func (m *metricSet) zeroMissing(defs []metricDef, exercised []string) {
	on := make(map[string]bool)
	for _, l := range exercised {
		on[l] = true
	}
	for _, d := range defs {
		layer, _, _ := strings.Cut(d.Name, ".")
		if !on[layer] && !m.has(d.Name) {
			m.set(d.Name, 0, d.Unit)
		}
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects the defined metrics, failing on any the run did not produce
// or produced in another unit.
func (m *metricSet) pick(defs []metricDef) (result, error) {
	out := result{Correct: m.correct, Attempted: m.attempted, Failed: m.failed, Metrics: make(map[string]resultValue)}
	for _, d := range defs {
		var found *metricValue
		for i := range m.list {
			if m.list[i].Name == d.Name {
				found = &m.list[i]
			}
		}
		if found == nil {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if found.Unit != d.Unit {
			return out, fmt.Errorf("metric %s measured in %s, defined in %s", d.Name, found.Unit, d.Unit)
		}
		out.Metrics[d.Name] = resultValue{found.Value, found.Unit}
	}
	if out.Attempted < 1 {
		return out, errors.New("no operation was attempted")
	}
	return out, nil
}

// definition is the part of BENCHMARK.json the benchmark reads.
type definition struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDefinition(path string) (*definition, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var d definition
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s defines no metrics", path)
	}
	return &d, nil
}

// record is one run's full result, kept for later comparison.
type record struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Seconds  int           `json:"seconds"`
	Trace    int           `json:"trace"`
	Stamp    Stamp         `json:"stamp"`
	Result   result        `json:"result"`
	All      []metricValue `json:"all"`
	// PassWalls are the untraced passes' wall times in seconds, in order,
	// and PassSteal the CPU time the hypervisor stole during each.
	PassWalls []float64 `json:"pass_walls_s"`
	PassSteal []float64 `json:"pass_steal_s"`
}

func (r record) save() error {
	dir := filepath.Join(outDir, "results", r.Workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("seed%d-trace%d-%d.json", r.Seed, r.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// parallelDo runs fs concurrently and returns the first error.
func parallelDo(fs ...func() error) error {
	errs := make([]error, len(fs))
	var wg sync.WaitGroup
	for i, f := range fs {
		wg.Add(1)
		go func(i int, f func() error) {
			defer wg.Done()
			errs[i] = f()
		}(i, f)
	}
	wg.Wait()
	return errors.Join(errs...)
}
