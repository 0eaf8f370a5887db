// Command cwndtrace regenerates the congestion-window evolution data behind
// the paper's Figures 5–9 (TCP Reno at 20, 30, 38, 39 and 60 clients) and
// Figures 10–12 (TCP Vegas at 20, 30 and 60 clients): it runs one
// experiment with window tracing enabled and emits the sampled series as
// CSV, plus an optional per-interval stability summary.
//
// Usage:
//
//	cwndtrace -proto reno -clients 39 -trace-clients 1,20,39 > fig8.csv
//	cwndtrace -proto reno -clients 38 -summary
//
// Traced runs always simulate — window series are not part of the
// persistent result cache's digest — but the run still reports its
// telemetry (-stats) and honors Ctrl-C cancellation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/runner"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cwndtrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cwndtrace", flag.ContinueOnError)
	var (
		clients  = fs.Int("clients", 20, "number of Poisson client streams")
		proto    = fs.String("proto", "reno", "transport protocol (TCP variants only)")
		qdisc    = fs.String("queue", "fifo", "gateway discipline spec: fifo, red, drr, codel, pie, tokenbucket, leakybucket — with ?key=value params")
		backend  = fs.String("backend", "packet", "execution engine (window tracing requires packet)")
		seed     = fs.Int64("seed", 1, "random seed")
		duration = fs.Duration("duration", 200*time.Second, "simulated test time")
		interval = fs.Duration("interval", 100*time.Millisecond, "sampling interval (paper: 0.1s)")
		traceArg = fs.String("trace-clients", "", "comma-separated 1-based client indices (default: 1, N/2, N)")
		summary  = fs.Bool("summary", false, "print per-20s stability summary instead of CSV")
		withQ    = fs.Bool("qlen", false, "also trace the gateway queue length")
		progress = fs.Bool("progress", false, "render a live progress line on stderr")
		stats    = fs.Bool("stats", false, "print run telemetry on stderr when done")

		telemetryOn       = fs.Bool("telemetry", false, "stream periodic metric snapshots (implied by -telemetry-out)")
		telemetryInterval = fs.Duration("telemetry-interval", 100*time.Millisecond, "telemetry snapshot period (simulated time)")
		telemetryOut      = fs.String("telemetry-out", "", "telemetry stream destination (.csv for CSV, anything else JSONL)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	b, err := core.ParseBackend(*backend)
	if err != nil {
		return err
	}
	if b != core.PacketBackend {
		return fmt.Errorf("backend %s has no per-flow windows to trace; use burstsim -backend fluid -fluid-trace FILE for the ODE trajectory", b)
	}
	p, err := core.ParseProtocol(*proto)
	if err != nil {
		return err
	}
	if !p.IsTCP() {
		return fmt.Errorf("protocol %s has no congestion window to trace", p)
	}
	qopt, err := core.ParseDiscipline(*qdisc)
	if err != nil {
		return err
	}
	traceClients, err := parseClientList(*traceArg)
	if err != nil {
		return err
	}

	opts := []core.Option{
		core.WithClients(*clients),
		core.WithProtocol(p),
		qopt,
		core.WithSeed(*seed),
		core.WithDuration(*duration),
		core.WithCwndTracing(*interval, traceClients...),
	}
	if *withQ {
		opts = append(opts, core.WithQueueTrace())
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
	var prog *runner.Progress
	if *progress {
		prog = runner.NewProgress(os.Stderr)
		exec.OnEvent = prog.Observe
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	results, batchStats, err := core.RunBatch(ctx, []core.Config{cfg}, exec)
	if prog != nil {
		prog.Finish()
	}
	if closeSink != nil {
		if cerr := closeSink(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	res := results[0]
	if *stats {
		fmt.Fprint(os.Stderr, batchStats.Table())
	}

	if *summary {
		printSummary(res)
		return nil
	}
	series := res.CwndTraces
	if res.QueueTrace != nil {
		series = append(series, res.QueueTrace)
	}
	var sb strings.Builder
	trace.WriteCSV(&sb, series)
	fmt.Print(sb.String())
	return nil
}

// parseClientList parses "1,10,20" into []int{1, 10, 20}.
func parseClientList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("trace-clients: %w", err)
		}
		out = append(out, n)
	}
	return out, nil
}

// printSummary reports, per traced client and 20-second interval, the mean
// congestion window and the number of collapses (samples at cwnd <= 1),
// which makes the paper's "stabilizes after t" vs "never stabilizes"
// distinction readable without plotting.
func printSummary(res *core.Result) {
	const bucket = 20.0 // seconds
	fmt.Printf("%d clients, %s/%s: cwnd stability per %gs interval\n",
		res.Config.Clients, res.Config.Protocol, res.Config.Gateway, bucket)
	for _, s := range res.CwndTraces {
		fmt.Printf("  %s:\n", s.Name)
		i := 0
		for start := 0.0; i < len(s.Samples); start += bucket {
			var sum float64
			var n, collapses int
			for i < len(s.Samples) && s.Samples[i].At.Seconds() < start+bucket {
				v := s.Samples[i].Value
				sum += v
				if v <= 1 {
					collapses++
				}
				n++
				i++
			}
			if n == 0 {
				continue
			}
			fmt.Printf("    [%3.0fs-%3.0fs) mean cwnd %5.2f  collapses %3d/%d\n",
				start, start+bucket, sum/float64(n), collapses, n)
		}
	}
	fmt.Printf("  aggregate: %d timeouts, %d fast retransmits, Jain fairness %.4f, sync index %.3f\n",
		res.Timeouts, res.FastRetransmits, res.JainFairness, res.CwndSyncIndex)
}
