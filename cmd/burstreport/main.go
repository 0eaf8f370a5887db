// Command burstreport runs the paper's entire evaluation and renders one
// self-contained markdown report: Table 1, the four sweep figures with
// per-regime summary tables and crossover analysis, and the
// window-evolution figures as stability summaries. It is the single
// command that regenerates everything EXPERIMENTS.md documents.
//
// Usage:
//
//	burstreport > report.md             # full fidelity (several minutes)
//	burstreport -duration 30s -step 10  # quick look
//	burstreport -progress -stats        # live progress + telemetry
//
// All sweep points and window-trace runs fan out across a worker pool
// (-jobs); sweep points additionally reuse the persistent result cache
// (-cache), so regenerating a report after a warm pass only re-simulates
// the traced figures.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/queue"
	"tcpburst/internal/runcache"
	"tcpburst/internal/runner"
	"tcpburst/internal/telemetry"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "burstreport:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) (err error) {
	fs := flag.NewFlagSet("burstreport", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "random seed")
		backend  = fs.String("backend", "packet", "execution engine for the sweep: packet (event-level simulation) or fluid (mean-field model)")
		shards   = fs.Int("shards", 1, "partition each packet run over this many cores (bit-identical results)")
		duration = fs.Duration("duration", 200*time.Second, "simulated test time per point")
		step     = fs.Int("step", 4, "client-count step for the sweep")
		maxN     = fs.Int("max-clients", 60, "largest client count")
		jobs     = fs.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cache    = fs.Bool("cache", true, "reuse cached sweep results from previous runs")
		cacheDir = fs.String("cache-dir", "", "result cache directory (default ~/.cache/tcpburst)")
		progress = fs.Bool("progress", false, "render a live progress line on stderr")
		stats    = fs.Bool("stats", false, "print run telemetry on stderr when done")

		telemetryOn       = fs.Bool("telemetry", false, "stream per-run labeled telemetry records (requires -telemetry-out)")
		telemetryInterval = fs.Duration("telemetry-interval", 100*time.Millisecond, "telemetry snapshot period (simulated time)")
		telemetryOut      = fs.String("telemetry-out", "", "shared JSONL file receiving every run's labeled records")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *telemetryOn && *telemetryOut == "" {
		return fmt.Errorf("-telemetry requires -telemetry-out FILE")
	}

	exec := core.ExecOptions{Jobs: *jobs}
	if *cache {
		store, err := runcache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "burstreport: cache disabled:", err)
		} else {
			exec.Cache = store
		}
	}
	var prog *runner.Progress
	if *progress {
		prog = runner.NewProgress(os.Stderr)
		exec.OnEvent = prog.Observe
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	b, err := core.ParseBackend(*backend)
	if err != nil {
		return err
	}

	// A sweep/trace template: Clients stays zero and is filled per job, so
	// the base skips defaulting and validation until each run.
	baseOpts := []core.Option{
		core.WithSeed(*seed),
		core.WithBackend(b),
		core.WithDuration(*duration),
		core.WithShards(*shards),
	}
	if *telemetryOn {
		f, err := os.Create(*telemetryOut)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		sw := telemetry.NewSyncWriter(bw)
		defer func() {
			if ferr := bw.Flush(); ferr != nil && err == nil {
				err = ferr
			}
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		baseOpts = append(baseOpts,
			core.WithTelemetry(*telemetryInterval),
			core.WithTelemetrySinkFactory(func(c core.Config) telemetry.Sink {
				return telemetry.NewJSONLRun(sw, c.Label())
			}),
		)
	}
	base := core.BaseConfig(baseOpts...)

	clients := make([]int, 0, *maxN / *step + 2)
	for n := *step; n <= *maxN; n += *step {
		clients = append(clients, n)
	}
	for _, n := range []int{38, 39} {
		if n <= *maxN && !has(clients, n) {
			clients = insertSorted(clients, n)
		}
	}

	fmt.Fprintf(os.Stderr, "sweep: %d client counts x %d cells at %s each...\n",
		len(clients), len(core.PaperCells()), *duration)
	sweep, err := core.RunSweepContext(ctx, core.SweepOptions{Base: base, Clients: clients, Exec: exec})
	if err != nil {
		if prog != nil {
			prog.Finish()
		}
		return err
	}

	fmt.Fprintf(w, "# TCP burstiness report (seed %d, %s per point)\n\n", *seed, *duration)
	writeTable1(w, base)
	writeSweepSection(w, sweep)
	var traceStats runner.Stats
	if b == core.FluidBackend {
		// The window-evolution figures need per-flow cwnd samples, which the
		// mean-field model deliberately does not carry.
		fmt.Fprintf(w, "## Figures 5–12 — window evolution\n\n")
		fmt.Fprintf(w, "_Skipped on the fluid backend: the mean-field model tracks window densities, "+
			"not per-flow windows. Re-run with `-backend packet`, or use `burstsim -backend fluid "+
			"-fluid-trace FILE` for the ODE state trajectory._\n\n")
	} else {
		traceStats, err = writeTraceSection(ctx, w, base, *maxN, exec)
	}
	if prog != nil {
		prog.Finish()
	}
	if err != nil {
		return err
	}
	if *stats {
		fmt.Fprint(os.Stderr, sweep.Stats.Add(traceStats).Table())
	}
	return nil
}

func writeTable1(w io.Writer, base core.Config) {
	cfg := base
	cfg.Clients = 1
	cfg = cfg.WithDefaults()
	fmt.Fprintf(w, "## Table 1 — parameters\n\n")
	fmt.Fprintf(w, "- client links: %.0f Mbps, %s; bottleneck: %.0f Mbps, %s\n",
		cfg.ClientRateBps/1e6, cfg.ClientDelay, cfg.BottleneckRateBps/1e6, cfg.BottleneckDelay)
	fmt.Fprintf(w, "- gateway buffer %d pkts; packet %d B; advertised window %d pkts\n",
		cfg.BufferPackets, cfg.PacketSize, cfg.MaxWindow)
	fmt.Fprintf(w, "- Poisson 1/λ = %s per client; RTT window %s\n",
		cfg.MeanInterval, cfg.RTT())
	red, _, _ := queue.REDSettings(queue.Spec{Name: "red"})
	fmt.Fprintf(w, "- Vegas α/β/γ %g/%g/%g; RED %g/%g w=%g max_p=%g\n\n",
		cfg.Vegas.Alpha, cfg.Vegas.Beta, cfg.Vegas.Gamma,
		red.MinThreshold, red.MaxThreshold, red.Weight, red.MaxProb)
}

func writeSweepSection(w io.Writer, sweep *core.Sweep) {
	fmt.Fprintf(w, "## Figures 2–4 and 13 — sweep\n\n")
	for _, n := range pickSummaryPoints(sweep.Clients) {
		fmt.Fprintf(w, "### %d clients\n\n```\n%s```\n\n", n, sweep.SummaryTable(n))
	}

	fmt.Fprintf(w, "### Crossover analysis (loss > 1%%)\n\n")
	for _, cell := range sweep.Cells {
		if n, ok := sweep.CrossoverClients(cell, 1.0); ok {
			fmt.Fprintf(w, "- %s crosses at %d clients\n", cell, n)
		} else {
			fmt.Fprintf(w, "- %s never crosses\n", cell)
		}
	}
	fmt.Fprintf(w, "\n### Peak modulation (measured / Poisson c.o.v.)\n\n")
	for _, cell := range sweep.Cells {
		n, f := sweep.PeakModulation(cell)
		fmt.Fprintf(w, "- %s peaks at %.2fx (%d clients)\n", cell, f, n)
	}
	fmt.Fprintln(w)
}

func writeTraceSection(ctx context.Context, w io.Writer, base core.Config, maxN int, exec core.ExecOptions) (runner.Stats, error) {
	fmt.Fprintf(w, "## Figures 5–12 — window evolution\n\n")
	fmt.Fprintf(w, "| figure | protocol | clients | mean cwnd | timeouts | fast rtx | sync idx | Jain |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	allRows := []struct {
		fig     int
		proto   core.Protocol
		clients int
	}{
		{5, core.Reno, 20}, {6, core.Reno, 30}, {7, core.Reno, 38},
		{8, core.Reno, 39}, {9, core.Reno, 60},
		{10, core.Vegas, 20}, {11, core.Vegas, 30}, {12, core.Vegas, 60},
	}
	rows := allRows[:0]
	cfgs := make([]core.Config, 0, len(allRows))
	for _, row := range allRows {
		if row.clients > maxN {
			continue
		}
		cfg := base
		cfg.Clients = row.clients
		cfg.Protocol = row.proto
		cfg.Gateway = core.FIFO
		cfg.CwndSampleInterval = 100 * time.Millisecond
		// Per-flow tracing samples cross-shard state, so traced figures run
		// serially even when -shards accelerates the sweep points.
		cfg.Shards = 0
		rows = append(rows, row)
		cfgs = append(cfgs, cfg)
	}
	// Traced runs bypass the cache (the digest has no series), but they
	// still fan out across the worker pool.
	results, stats, err := core.RunBatch(ctx, cfgs, exec)
	if err != nil {
		return stats, fmt.Errorf("window-evolution figures: %w", err)
	}
	for i, row := range rows {
		res := results[i]
		var sum float64
		var count int
		for _, s := range res.CwndTraces {
			for _, smp := range s.Samples {
				sum += smp.Value
				count++
			}
		}
		mean := 0.0
		if count > 0 {
			mean = sum / float64(count)
		}
		fmt.Fprintf(w, "| %d | %s | %d | %.2f | %d | %d | %.3f | %.4f |\n",
			row.fig, row.proto, row.clients, mean,
			res.Timeouts, res.FastRetransmits, res.CwndSyncIndex, res.JainFairness)
	}
	fmt.Fprintln(w)
	return stats, nil
}

// pickSummaryPoints selects representative client counts: the smallest,
// one mid-sweep, the 38/39 crossover when present, and the largest.
func pickSummaryPoints(clients []int) []int {
	if len(clients) == 0 {
		return nil
	}
	out := []int{clients[0]}
	mid := clients[len(clients)/2]
	for _, n := range []int{mid, 38, 39, clients[len(clients)-1]} {
		if has(clients, n) && !has(out, n) {
			out = insertSorted(out, n)
		}
	}
	return out
}

func has(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func insertSorted(xs []int, v int) []int {
	i := 0
	for i < len(xs) && xs[i] < v {
		i++
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}
