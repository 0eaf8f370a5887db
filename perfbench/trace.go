package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/runner"
)

// span is one timed interval of a traced run, in seconds since the run
// began. Parent 0 marks the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps a run's spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) at(now time.Time) float64 { return now.Sub(t.t0).Seconds() }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.at(time.Now())})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = t.at(time.Now()) }

// jobRecorder turns one pass's runner events into job spans and collects
// each job's wait (queued to started) and run time. The runner serializes
// OnEvent calls, so it needs no locking.
type jobRecorder struct {
	tr     *tracer
	parent int
	queued map[int]time.Time
	open   map[int]int
	waits  []float64
	walls  []float64
	total  int
	cached int
}

func newJobRecorder(tr *tracer, parent int) *jobRecorder {
	return &jobRecorder{tr: tr, parent: parent, queued: map[int]time.Time{}, open: map[int]int{}}
}

func (j *jobRecorder) observe(e runner.Event) {
	now := time.Now()
	switch e.Kind {
	case runner.EventQueued:
		j.total++
		j.queued[e.Job] = now
	case runner.EventStarted:
		j.waits = append(j.waits, now.Sub(j.queued[e.Job]).Seconds())
		j.open[e.Job] = j.tr.begin("job "+e.Label, j.parent)
	case runner.EventDone, runner.EventFailed:
		if id, ok := j.open[e.Job]; ok {
			j.tr.end(id)
		}
		j.walls = append(j.walls, e.Wall.Seconds())
	case runner.EventCached:
		j.cached++
	}
}

// runtimeSample reads the process's GC CPU, total CPU and heap allocation
// counters from runtime/metrics.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	val := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindFloat64:
			return v.Float64()
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// cpuPackages are the internal packages that get their own cpu_share
// metric; any other frame counts as other, math_rand or runtime.
var cpuPackages = []string{
	"core", "sim", "link", "tcp", "queue", "traffic", "node", "packet",
	"transport", "stats", "trace", "telemetry", "meanfield", "runner", "runcache",
}

// driverReps is how many times each layer driver runs; it reports the
// median.
const driverReps = 3

// overheadPairs is how many telemetry passes a traced run brackets with
// untraced ones.
const overheadPairs = 3

// minProfile is the least CPU-profiled wall time a traced run collects:
// the traced pass repeats until it is covered.
const minProfile = 2 * time.Second

// traced times the workload's set-up pass, an untraced pass, a traced
// pass (runner job spans and a CPU profile, into a fresh result cache that
// a warm pass then reads back), telemetry passes between untraced ones,
// then the layer drivers, and reports the per-layer metrics. The bool is
// false when a driver's own output check failed.
func traced(b *bench, seed int64, spansPath string) (metrics, bool, error) {
	tr := &tracer{t0: time.Now()}
	root := tr.begin("run "+b.w.name, 0)
	w := b.w
	base := w.base(seed)
	cfgs := w.configs(base)
	m := metrics{}

	// Build: the 1 ns horizon pass and its heap cost per flow. It runs
	// first so that the untraced and traced passes both start from a
	// process whose heap has already grown.
	var setup time.Duration
	buildBytes, buildAllocs := 0.0, 0.0
	if w.packet {
		id := tr.begin("build", root)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		_, d, err := b.timed(setupConfig(base), "setup", passOptions{})
		if err != nil {
			return nil, false, err
		}
		runtime.ReadMemStats(&ms1)
		tr.end(id)
		setup = d
		flows := 0
		for _, c := range cfgs {
			flows += c.Clients
		}
		buildBytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(flows)
		buildAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(flows)
	}
	m.set("core.build_bytes_per_flow", buildBytes, "bytes")
	m.set("core.build_allocs_per_flow", buildAllocs, "count")

	// Untraced pass, on the end-to-end path.
	id := tr.begin("untraced", root)
	rt0 := readRuntime()
	results, untraced, err := b.timed(base, "main", passOptions{})
	if err != nil {
		return nil, false, err
	}
	if results == nil {
		return nil, false, fmt.Errorf("the untraced pass failed: %v", b.g.errs)
	}
	rt1 := readRuntime()
	tr.end(id)
	m.set("peak_rss_mb", peakRSSMB(), "MB")

	// Traced pass: runner job spans and a CPU profile. Its store feeds the
	// warm pass; repetitions that only lengthen the profile use their own.
	store, cleanup, err := b.store()
	if err != nil {
		return nil, false, err
	}
	defer cleanup()
	profPath := filepath.Join(b.dir, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, false, err
	}
	id = tr.begin("traced", root)
	cold := newJobRecorder(tr, id)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, false, err
	}
	var tracedWall, profiled time.Duration
	for profiled < minProfile {
		opt := passOptions{}
		if profiled == 0 {
			opt = passOptions{cache: store, onEvent: cold.observe}
		}
		_, d, err := b.timed(base, "main", opt)
		if err != nil {
			pprof.StopCPUProfile()
			prof.Close()
			return nil, false, err
		}
		if profiled == 0 {
			tracedWall = d
		}
		profiled += d
	}
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, false, err
	}
	tr.end(id)

	id = tr.begin("warm", root)
	warm := newJobRecorder(tr, id)
	t0 := time.Now()
	res, perr := w.pass(b.ctx, base, passOptions{cache: store, onEvent: warm.observe})
	warmWall := time.Since(t0)
	tr.end(id)
	b.g.pass("main", b.n, res, perr, false)

	// Overheads: each telemetry pass (the untraced path with 100 ms
	// snapshots into the ring) runs between two untraced passes and is
	// compared with their mean, so that a drift in machine speed over the
	// run does not read as overhead. The fluid backend answers telemetry
	// with an ODE transient, a different computation, so it only gets the
	// closing untraced pass.
	untracedWalls := []float64{untraced.Seconds()}
	var telemetryWalls []float64
	for i := 0; i < overheadPairs; i++ {
		if w.packet {
			id = tr.begin("telemetry", root)
			tcfg := base
			tcfg.TelemetryInterval = 100 * time.Millisecond
			_, d, err := b.timed(tcfg, "telemetry", passOptions{})
			if err != nil {
				return nil, false, err
			}
			tr.end(id)
			telemetryWalls = append(telemetryWalls, d.Seconds())
		}
		id = tr.begin("untraced", root)
		_, d, err := b.timed(base, "main", passOptions{})
		if err != nil {
			return nil, false, err
		}
		tr.end(id)
		untracedWalls = append(untracedWalls, d.Seconds())
		if !w.packet {
			break
		}
	}
	telemetryOverhead := 0.0
	if len(telemetryWalls) > 0 {
		ratios := make([]float64, len(telemetryWalls))
		for i, t := range telemetryWalls {
			ratios[i] = t / ((untracedWalls[i] + untracedWalls[i+1]) / 2)
		}
		telemetryOverhead = median(ratios) - 1
	}
	untraced = time.Duration(median(untracedWalls) * float64(time.Second))

	var events, ops, generated, delivered, sent, drops, timeouts, fastRetx float64
	for _, r := range results {
		events += float64(r.SimEvents)
		ops += float64(r.SchedOps)
		generated += float64(r.Generated)
		delivered += float64(r.Delivered)
		sent += float64(r.DataSent)
		drops += float64(r.BottleneckDrops)
		timeouts += float64(r.Timeouts)
		fastRetx += float64(r.FastRetransmits)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	steady := 0.0
	if w.packet {
		steady = ratio(events, (untraced - setup).Seconds())
	}
	m.set("steady_events_per_s", steady, "1/s")
	m.set("sim.events", events, "count")
	m.set("sim.sched_ops_per_event", ratio(ops, events), "ratio")
	arrivals := 0.0
	if w.packet {
		arrivals = ratio(generated, events)
	}
	m.set("sim.arrivals_per_event", arrivals, "ratio")
	m.set("traffic.generated", generated, "count")
	m.set("traffic.delivered_per_generated", ratio(delivered, generated), "ratio")
	m.set("tcp.goodput_frac", ratio(delivered, sent), "ratio")
	m.set("tcp.timeouts", timeouts, "count")
	m.set("tcp.fast_retransmits", fastRetx, "count")
	m.set("queue.drop_frac", ratio(drops, sent), "ratio")
	m.set("go.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio")
	m.set("go.alloc_bytes_per_event", ratio(rt1.allocBytes-rt0.allocBytes, events), "bytes")
	m.set("trace.overhead_frac", tracedWall.Seconds()/untraced.Seconds()-1, "ratio")
	m.set("telemetry.overhead_frac", telemetryOverhead, "ratio")

	var busy float64
	for _, s := range cold.walls {
		busy += s
	}
	m.set("runner.job_s_p50", quantile(cold.walls, 0.5), "s")
	m.set("runner.job_s_p90", quantile(cold.walls, 0.9), "s")
	m.set("runner.wait_s_p90", quantile(cold.waits, 0.9), "s")
	m.set("runner.busy_frac", busy/(tracedWall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	m.set("runcache.hit_frac_cold", ratio(float64(cold.cached), float64(cold.total)), "ratio")
	m.set("runcache.hit_frac_warm", ratio(float64(warm.cached), float64(warm.total)), "ratio")
	m.set("runcache.warm_pass_s", warmWall.Seconds(), "s")

	id = tr.begin("driver runcache", root)
	key, put, get, err := cacheTimes(filepath.Join(b.dir, "cachetimes"), results)
	tr.end(id)
	if err != nil {
		return nil, false, err
	}
	m.set("runcache.key_us", key, "us")
	m.set("runcache.put_us", put, "us")
	m.set("runcache.get_us", get, "us")

	// Mean-field solves: the fluid grid's own jobs, or for a packet
	// workload the fluid model of its configurations, solved serially.
	solves := cold.walls
	fluidResults := results
	if w.packet {
		id = tr.begin("driver meanfield", root)
		rec := newJobRecorder(tr, id)
		fluidResults, _, err = core.RunBatch(b.ctx, fluidConfigs(w, cfgs), core.ExecOptions{Jobs: 1, OnEvent: rec.observe})
		tr.end(id)
		if err != nil {
			return nil, false, fmt.Errorf("fluid solves: %w", err)
		}
		solves = rec.walls
	}
	var iterations float64
	for _, r := range fluidResults {
		iterations += float64(r.Fluid.Iterations)
	}
	m.set("meanfield.iterations", iterations, "count")
	m.set("meanfield.solve_ms_p50", 1e3*quantile(solves, 0.5), "ms")
	m.set("meanfield.solve_ms_p90", 1e3*quantile(solves, 0.9), "ms")

	ok := true
	sh := shapeOf(cfgs, results)
	for _, d := range drivers {
		id = tr.begin("driver "+d.name, root)
		var vs []float64
		for i := 0; i < driverReps; i++ {
			v, err := d.run(sh, seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: FAILED driver %s: %v\n", d.name, err)
				ok = false
			}
			vs = append(vs, v)
		}
		tr.end(id)
		m.set(d.name, median(vs), d.unit)
	}

	id = tr.begin("pprof", root)
	shares, err := cpuShares(profPath)
	tr.end(id)
	if err != nil {
		return nil, false, err
	}
	for name, v := range shares {
		m.set("cpu_share."+name, v, "ratio")
	}

	tr.end(root)
	if spansPath != "" {
		if err := writeSpans(spansPath, tr.spans); err != nil {
			return nil, false, err
		}
	}
	return m, ok, nil
}

// timed runs one pass of cfg in this process, after returning the heap to
// the OS, and records it with the gate under label. A cached workload's
// main pass given no store runs into a fresh one, as its end-to-end path
// does. It returns the results (nil when the pass failed) and the pass's
// wall time; the error reports only a failure to set the pass up.
func (b *bench) timed(cfg core.Config, label string, opt passOptions) ([]*core.Result, time.Duration, error) {
	if b.w.cached && opt.cache == nil && label == "main" {
		s, cleanup, err := b.store()
		if err != nil {
			return nil, 0, err
		}
		defer cleanup()
		opt.cache = s
	}
	debug.FreeOSMemory()
	t0 := time.Now()
	res, err := b.w.pass(b.ctx, cfg, opt)
	d := time.Since(t0)
	b.g.pass(label, b.n, res, err, true)
	return res, d, nil
}

// fluidConfigs is the fluid model of a packet workload: a single run's
// configuration solved ten times, or the grid's cells at 20, 39 and 60
// clients.
func fluidConfigs(w workload, cfgs []core.Config) []core.Config {
	var out []core.Config
	for _, c := range cfgs {
		c.Backend = core.FluidBackend
		switch {
		case !w.grid:
			for i := 0; i < 10; i++ {
				out = append(out, c)
			}
		case c.Clients == 20 || c.Clients == 39 || c.Clients == 60:
			out = append(out, c)
		}
	}
	return out
}

// cpuShares summarises a CPU profile with `go tool pprof -top` and returns
// each layer's share of the leaf-frame (flat) samples.
func cpuShares(profPath string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	var out, stderr bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profPath)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	flat, err := parseTop(out.String())
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{"math_rand": 0, "runtime": 0, "other": 0}
	for _, p := range cpuPackages {
		shares[p] = 0
	}
	var total float64
	for fn, v := range flat {
		shares[layerOf(fn)] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof: the profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// parseTop reads the flat seconds per function from `pprof -top` output.
func parseTop(text string) (map[string]float64, error) {
	flat := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		d, err := parseFlat(f[0])
		if err != nil {
			continue // the column header
		}
		flat[strings.Join(f[5:], " ")] += d
	}
	return flat, sc.Err()
}

// parseFlat reads a pprof duration column such as "1.20s", "30ms" or "0".
func parseFlat(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// layerOf maps a profiled function to its cpu_share bucket.
func layerOf(fn string) string {
	pkg := fn
	if slash := strings.LastIndex(pkg, "/"); slash >= 0 {
		if dot := strings.Index(pkg[slash:], "."); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.Index(pkg, "."); dot >= 0 {
		pkg = pkg[:dot]
	}
	switch {
	case pkg == "math/rand":
		return "math_rand"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "tcpburst/internal/"); ok {
		for _, p := range cpuPackages {
			if name == p {
				return p
			}
		}
	}
	return "other"
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// peakRSSMB is the process's peak resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
