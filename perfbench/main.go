// Command perfbench is the repository's benchmark. It runs one named
// workload through the public internal/core API, checks every result
// against the conservation identities and the pinned summary digests, and
// prints its metrics as one JSON object on the last line of stdout.
//
// Untraced runs (-trace 0) repeat the workload for -seconds, each pass in
// a fresh child process, and report the end-to-end metrics as medians.
// Traced runs (-trace 1) run it in one process under runner spans and a
// CPU profile, time the layer drivers, and report the per-layer metrics.
// See README.md for the workloads and metrics.
//
// Run it through run.py, which builds this package from the checkout:
//
//	python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"tcpburst/internal/runcache"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper_grid, overload_n500, scale_rho09, overload_arrivals or fluid_grid")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory for cache stores and profiles")
	spans := flag.String("spans", "", "file the traced run writes its spans to")
	pass := flag.String("pass", "", "run one setup or main pass in this process and print its report (untraced runs start these)")
	writePins := flag.String("write-pins", "", "run every workload's main pass at the default seed and write the digests to this file")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *workdir, *spans, *pass, *writePins); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, workdir, spansPath, pass, writePins string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	if writePins != "" {
		return pinAll(ctx, writePins)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive budget", seconds)
	}
	var pins []string
	if seed == defaultSeed {
		if pins, err = loadPins(w.name); err != nil {
			return err
		}
	}
	b := &bench{ctx: ctx, w: w, n: len(w.configs(w.base(seed))), dir: workdir, g: newGate(pins)}
	if pass != "" {
		return b.passProcess(seed, pass)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%d nproc=%d gomaxprocs=%d %s\n",
		w.name, seed, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var m metrics
	checksOK := true
	if trace == 1 {
		m, checksOK, err = traced(b, seed, spansPath)
	} else {
		m, err = endToEnd(b, seed, time.Duration(seconds*float64(time.Second)))
	}
	if err != nil {
		return err
	}
	g := b.g
	for _, e := range g.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", e)
	}
	out, err := json.Marshal(report{
		Correct:   g.ok() && checksOK,
		Attempted: g.attempted,
		Failed:    g.failed,
		Metrics:   m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setupShare is the share of a run's time spent on set-up passes: each
// repetition runs set-up passes (at most maxSetupReps) until they have
// taken that share, and the first repetition runs at least one.
const (
	setupShare   = 0.25
	maxSetupReps = 8
)

// endToEnd repeats the workload until the budget is spent. Each
// repetition runs set-up passes and one full pass, every pass in a fresh
// process of its own, as a user's run is. It reports the median wall time
// of each kind of pass.
func endToEnd(b *bench, seed int64, budget time.Duration) (metrics, error) {
	var walls, setups []float64
	var setupTime float64
	start := time.Now()
	for rep := 0; ; rep++ {
		for i := 0; i < maxSetupReps && (rep == 0 && i == 0 || setupTime < setupShare*time.Since(start).Seconds()); i++ {
			d, err := b.passChild(seed, "setup")
			if err != nil {
				return nil, err
			}
			setupTime += d
			setups = append(setups, d)
		}
		d, err := b.passChild(seed, "main")
		if err != nil {
			return nil, err
		}
		walls = append(walls, d)
		if time.Since(start).Seconds()+d > budget.Seconds() {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: wall_s %.4g\nperfbench: setup_s %.4g\n", walls, setups)
	m := metrics{}
	m.set("wall_s", median(walls), "s")
	m.set("setup_s", median(setups), "s")
	return m, nil
}

// bench holds what every pass of one run shares.
type bench struct {
	ctx context.Context
	w   workload
	n   int // operations per pass
	dir string
	g   *gate
}

// store opens a fresh result store under the run's directory; cleanup
// removes it.
func (b *bench) store() (*runcache.Store, func(), error) {
	dir, err := os.MkdirTemp(b.dir, "cache-")
	if err != nil {
		return nil, nil, err
	}
	s, err := runcache.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return s, func() { os.RemoveAll(dir) }, nil
}

// passReport is what a pass process prints: the cold pass's wall time and
// the checked operations of the cold pass and, for a cached workload, of
// the warm pass after it.
type passReport struct {
	Seconds float64   `json:"seconds"`
	Cold    []opCheck `json:"cold"`
	Warm    []opCheck `json:"warm,omitempty"`
}

// passProcess runs one set-up or main pass in this process. A cached
// workload runs its main pass into a fresh store and then runs the untimed
// warm pass over the same store. It prints the pass report.
func (b *bench) passProcess(seed int64, label string) error {
	base := b.w.base(seed)
	switch label {
	case "main":
	case "setup":
		base = setupConfig(base)
	default:
		return fmt.Errorf("-pass %q: want setup or main", label)
	}
	var opt passOptions
	if b.w.cached && label == "main" {
		s, cleanup, err := b.store()
		if err != nil {
			return err
		}
		defer cleanup()
		opt.cache = s
	}
	t0 := time.Now()
	res, err := b.w.pass(b.ctx, base, opt)
	rep := passReport{Seconds: time.Since(t0).Seconds(), Cold: checkOps(res, err, b.n, true)}
	if opt.cache != nil {
		warm, err := b.w.pass(b.ctx, base, opt)
		rep.Warm = checkOps(warm, err, b.n, false)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// passChild runs one pass in a child process, records its checked
// operations with the gate and returns the pass's wall seconds.
func (b *bench) passChild(seed int64, label string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(b.ctx, exe, "-workload", b.w.name, "-seed", strconv.FormatInt(seed, 10),
		"-pass", label, "-workdir", b.dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var rep passReport
	if err == nil {
		err = json.Unmarshal(lastLine(out), &rep)
	}
	if err != nil {
		return 0, fmt.Errorf("%s pass process: %w", label, err)
	}
	b.g.record(label, rep.Cold)
	if rep.Warm != nil {
		b.g.record(label, rep.Warm)
	}
	return rep.Seconds, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// median of xs; xs must be non-empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
