// Command burstsim runs a single burstiness experiment — N Poisson clients
// over a chosen transport protocol and gateway discipline — and prints the
// metrics the paper reports.
//
// Usage:
//
//	burstsim -clients 39 -proto reno -queue fifo -duration 200s
//	burstsim -clients 39 -queue 'red?min=5&max=15&ecn=true'
//	burstsim -clients 39 -cache -stats     # reuse/store the result on disk
//	burstsim -backend fluid -clients 1000000 -mean-interval 286.7s
//
// With -backend fluid the run solves the mean-field model instead of
// simulating packets: cost independent of N, same summary and telemetry
// shapes, and -fluid-trace FILE dumps the ODE state trajectory as CSV.
//
// With -cache the run is served from the persistent result store when the
// same configuration has been simulated before (-flows always simulates:
// the per-flow breakdown is not part of the cached digest). With -telemetry
// the run streams periodic snapshot records — queue depth, per-RTT c.o.v.,
// per-flow windows, drop and retransmit counters — to -telemetry-out
// (JSONL, or CSV by extension) while a live line on stderr shows the run's
// pulse; telemetry runs always simulate, never touching the cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/prof"
	"tcpburst/internal/runcache"
	"tcpburst/internal/telemetry"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "burstsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("burstsim", flag.ContinueOnError)
	var (
		clients  = fs.Int("clients", 20, "number of Poisson client streams")
		proto    = fs.String("proto", "reno", "transport protocol: udp, reno, reno-delayack, vegas, tahoe, newreno, sack")
		qdisc    = fs.String("queue", "fifo", "gateway discipline spec: fifo, red, drr, codel, pie, tokenbucket, leakybucket — with ?key=value params, e.g. red?min=5&max=15 or codel?target=5ms&interval=100ms")
		backend  = fs.String("backend", "packet", "execution engine: packet (event-level simulation) or fluid (mean-field model)")
		shards   = fs.Int("shards", 1, "partition the packet simulation over this many cores (results are bit-identical to -shards 1)")
		seed     = fs.Int64("seed", 1, "random seed (identical seeds replay identically)")
		interarr = fs.Duration("mean-interval", 0, "mean packet inter-generation time per client (0 = paper default)")
		duration = fs.Duration("duration", 200*time.Second, "simulated test time")
		perFlow  = fs.Bool("flows", false, "print per-flow breakdown")
		asJSON   = fs.Bool("json", false, "emit the result summary as JSON")
		minRTO   = fs.Duration("minrto", 0, "minimum TCP retransmission timeout (0 = default)")
		wireLoss = fs.Float64("wireloss", 0, "random loss probability on the bottleneck wire")
		revRate  = fs.Float64("revrate", 0, "reverse (ACK) path rate in bps (0 = bottleneck rate)")
		cache    = fs.Bool("cache", false, "reuse/store the result in the persistent cache")
		cacheDir = fs.String("cache-dir", "", "result cache directory (default ~/.cache/tcpburst)")
		stats    = fs.Bool("stats", false, "print run telemetry on stderr when done")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")

		telemetryOn       = fs.Bool("telemetry", false, "stream periodic metric snapshots (implied by -telemetry-out)")
		telemetryInterval = fs.Duration("telemetry-interval", 100*time.Millisecond, "telemetry snapshot period (simulated time)")
		telemetryOut      = fs.String("telemetry-out", "", "telemetry stream destination (.csv for CSV, anything else JSONL)")

		fluidTrace         = fs.String("fluid-trace", "", "write the fluid backend's ODE state trajectory as CSV to this file (requires -backend fluid)")
		fluidTraceInterval = fs.Duration("fluid-trace-interval", 0, "simulated time between fluid-trace samples (0 = every integrator step)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	p, err := core.ParseProtocol(*proto)
	if err != nil {
		return err
	}
	qopt, err := core.ParseDiscipline(*qdisc)
	if err != nil {
		return err
	}
	b, err := core.ParseBackend(*backend)
	if err != nil {
		return err
	}
	if *fluidTrace != "" && b != core.FluidBackend {
		return fmt.Errorf("-fluid-trace requires -backend fluid")
	}
	if *perFlow && b == core.FluidBackend {
		return fmt.Errorf("-flows requires the packet backend: the fluid model tracks window densities, not individual flows")
	}

	opts := []core.Option{
		core.WithClients(*clients),
		core.WithProtocol(p),
		qopt,
		core.WithBackend(b),
		core.WithSeed(*seed),
		core.WithDuration(*duration),
		core.WithWireLoss(*wireLoss),
		core.WithReverseRate(*revRate),
		core.WithShards(*shards),
	}
	if *minRTO > 0 {
		opts = append(opts, core.WithMinRTO(*minRTO))
	}
	if *interarr > 0 {
		opts = append(opts, core.WithMeanInterval(*interarr))
	}
	var closeSink func() error
	if *telemetryOn || *telemetryOut != "" {
		opts = append(opts, core.WithTelemetry(*telemetryInterval))
		live := telemetry.NewLiveLine(os.Stderr,
			"queue.depth", "cov.rtt", "gw.drops", "tcp.timeouts")
		sink := telemetry.Sink(live)
		if *telemetryOut != "" {
			fileSink, closeFn, err := telemetry.OpenFileSink(*telemetryOut)
			if err != nil {
				return err
			}
			closeSink = closeFn
			sink = telemetry.MultiSink(fileSink, live)
		}
		opts = append(opts, core.WithTelemetrySink(sink))
	}
	cfg, err := core.NewConfig(opts...)
	if err != nil {
		return err
	}

	exec := core.ExecOptions{Jobs: 1}
	if *cache && !*perFlow {
		store, err := runcache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "burstsim: cache disabled:", err)
		} else {
			exec.Cache = store
		}
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	results, batchStats, err := core.RunBatch(ctx, []core.Config{cfg}, exec)
	if closeSink != nil {
		if cerr := closeSink(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	res := results[0]
	if *fluidTrace != "" {
		f, err := os.Create(*fluidTrace)
		if err != nil {
			return err
		}
		err = core.WriteFluidTrace(f, cfg, *fluidTraceInterval)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if *stats {
		fmt.Fprint(os.Stderr, batchStats.Table())
	}
	if *asJSON {
		raw, err := res.MarshalSummaryJSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(raw))
		return nil
	}
	printResult(w, res, *perFlow)
	return nil
}

func printResult(w io.Writer, res *core.Result, perFlow bool) {
	cfg := res.Config
	fmt.Fprintf(w, "experiment: %d clients, %s, %s gateway, %s (%s)\n",
		cfg.Clients, cfg.Protocol, cfg.Gateway, cfg.Duration, cfg.CongestionLevel())
	fmt.Fprintf(w, "  offered load        %.2f Mbps of %.2f Mbps bottleneck\n",
		cfg.OfferedLoadBps()/1e6, cfg.BottleneckRateBps/1e6)
	fmt.Fprintf(w, "  c.o.v. (measured)   %.4f\n", res.COV)
	fmt.Fprintf(w, "  c.o.v. (Poisson)    %.4f\n", res.AnalyticCOV)
	fmt.Fprintf(w, "  modulation ratio    %.2fx\n", safeRatio(res.COV, res.AnalyticCOV))
	fmt.Fprintf(w, "  generated           %d packets\n", res.Generated)
	fmt.Fprintf(w, "  delivered           %d packets\n", res.Delivered)
	fmt.Fprintf(w, "  data sent           %d packets (%d retransmits)\n",
		res.DataSent, res.DataSent-minu(res.DataSent, res.Generated))
	fmt.Fprintf(w, "  loss                %.3f%% (%d forward drops, %d at bottleneck)\n",
		res.LossPct, res.ForwardDrops, res.BottleneckDrops)
	fmt.Fprintf(w, "  utilization         %.1f%%\n", res.Utilization*100)
	fmt.Fprintf(w, "  timeouts            %d\n", res.Timeouts)
	fmt.Fprintf(w, "  fast retransmits    %d\n", res.FastRetransmits)
	fmt.Fprintf(w, "  timeout/dupack      %.3f\n", res.TimeoutDupAckRatio)
	fmt.Fprintf(w, "  Jain fairness       %.4f\n", res.JainFairness)
	fmt.Fprintf(w, "  Hurst (var-time)    %.3f\n", res.Hurst)
	fmt.Fprintf(w, "  queue mean/p95/max  %.1f / %.1f / %.0f pkts (near-full %.1f%%)\n",
		res.Queue.Mean, res.Queue.P95, res.Queue.Max, res.Queue.FullFrac*100)
	fmt.Fprintf(w, "  one-way delay       %.1f ms mean, %.1f ms p95\n",
		res.DelayMeanSec*1000, res.DelayP95Sec*1000)
	if res.WireLosses > 0 {
		fmt.Fprintf(w, "  wire losses         %d\n", res.WireLosses)
	}
	if res.AckDrops > 0 {
		fmt.Fprintf(w, "  ack drops           %d\n", res.AckDrops)
	}
	if res.RED != nil {
		fmt.Fprintf(w, "  RED: %d early drops, %d forced drops, %d marks, final avg %.1f\n",
			res.RED.EarlyDrops, res.RED.ForcedDrops, res.RED.Marks, res.RED.FinalAvg)
	}
	if res.AQM != nil {
		fmt.Fprintf(w, "  AQM: %d early drops, %d forced drops, %d marks, %d shed, final %.3f\n",
			res.AQM.EarlyDrops, res.AQM.ForcedDrops, res.AQM.Marks, res.AQM.Shed, res.AQM.FinalAvg)
	}
	if res.Fluid != nil {
		fmt.Fprintf(w, "  fluid: %d iterations, residual %.2e, drop prob %.4f, mean window %.2f, rtt %.1f ms\n",
			res.Fluid.Iterations, res.Fluid.Residual, res.Fluid.DropProb,
			res.Fluid.MeanWindow, res.Fluid.RTTSec*1000)
	}
	if perFlow {
		fmt.Fprintln(w, "  per-flow:")
		for _, f := range res.Flows {
			fmt.Fprintf(w, "    client %2d: generated %5d delivered %5d timeouts %3d fastrtx %3d\n",
				f.Client, f.Generated, f.Delivered, f.Counters.Timeouts, f.Counters.FastRetransmits)
		}
	}
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func minu(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
