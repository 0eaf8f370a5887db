package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"tcpburst/internal/queue"
	"tcpburst/internal/runner"
)

// Cell names one protocol/discipline combination in a sweep, e.g.
// "reno/red". The paper's figure legends use exactly these pairs; any
// registered discipline joins a sweep as spec text, e.g.
// Cell{Protocol: Reno, Gateway: "codel?target=5ms"}.
type Cell struct {
	Protocol Protocol
	Gateway  GatewayQueue
}

// String returns the legend label: the bare protocol for FIFO cells, as the
// paper's legends read ("reno"), and "protocol/spec" for every other
// discipline ("reno/red", "reno/drr", "reno/codel?target=5ms").
func (c Cell) String() string {
	if c.Gateway == FIFO || c.Gateway == "" {
		return c.Protocol.String()
	}
	return c.Protocol.String() + "/" + string(c.Gateway)
}

// PaperCells returns the six protocol/queue combinations of Figures 2–4
// and 13: UDP, Reno, Reno/RED, Vegas, Vegas/RED, Reno/DelayAck.
func PaperCells() []Cell {
	return []Cell{
		{Protocol: UDP, Gateway: FIFO},
		{Protocol: Reno, Gateway: FIFO},
		{Protocol: Reno, Gateway: RED},
		{Protocol: Vegas, Gateway: FIFO},
		{Protocol: Vegas, Gateway: RED},
		{Protocol: RenoDelayAck, Gateway: FIFO},
	}
}

// SweepPoint is one (cell, client-count) measurement of a sweep.
type SweepPoint struct {
	Cell    Cell
	Clients int
	Result  *Result
}

// Sweep holds a full client-count sweep over a set of cells: the data
// behind Figures 2, 3, 4 and 13.
type Sweep struct {
	Clients []int
	Cells   []Cell
	Points  []SweepPoint

	// Stats carries the runner's execution telemetry (jobs ran/cached,
	// wall time, events/sec) for the sweep that produced the points.
	Stats runner.Stats

	// index maps (cell, clients) to its point; built lazily and rebuilt
	// whenever Points has grown, so hand-assembled sweeps work too.
	index   map[Cell]map[int]*SweepPoint
	indexed int
}

// SweepOptions parameterizes RunSweep.
type SweepOptions struct {
	// Base supplies every parameter except Clients/Protocol/Gateway;
	// zero-valued fields default per DefaultConfig.
	Base Config
	// Clients lists the client counts to sweep.
	Clients []int
	// Cells lists the protocol/queue combinations; nil means PaperCells.
	Cells []Cell
	// Exec configures parallelism, caching, and progress for the runs.
	Exec ExecOptions
}

// DefaultSweepClients returns the paper's x-axis: every 4 clients from 4 to
// 60, plus the 38/39 crossover points.
func DefaultSweepClients() []int {
	out := make([]int, 0, 18)
	for n := 4; n <= 60; n += 4 {
		out = append(out, n)
	}
	out = append(out, 38, 39)
	sort.Ints(out)
	return out
}

// RunSweep runs every (cell, clients) combination and collects the results.
func RunSweep(opts SweepOptions) (*Sweep, error) {
	return RunSweepContext(context.Background(), opts)
}

// RunSweepContext is RunSweep with cancellation. Every (cell, clients) job
// fans out across the runner's worker pool (opts.Exec.Jobs wide); each job
// is independently seeded and deterministic, so the assembled sweep is
// byte-identical to a serial run regardless of worker count.
func RunSweepContext(ctx context.Context, opts SweepOptions) (*Sweep, error) {
	cells := opts.Cells
	if len(cells) == 0 {
		cells = PaperCells()
	}
	clients := opts.Clients
	if len(clients) == 0 {
		clients = DefaultSweepClients()
	}
	for _, cell := range cells {
		// A malformed spec fails before any run, naming its cell.
		if _, err := queue.ParseSpec(string(cell.Gateway)); err != nil {
			return nil, fmt.Errorf("sweep: cell %s: %w", cell, err)
		}
	}
	cfgs := make([]Config, 0, len(clients)*len(cells))
	for _, n := range clients {
		for _, cell := range cells {
			cfg := opts.Base
			cfg.Clients = n
			cfg.Protocol, cfg.Gateway = cell.Protocol, cell.Gateway
			cfgs = append(cfgs, cfg)
		}
	}
	results, stats, err := RunBatch(ctx, cfgs, opts.Exec)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	sw := &Sweep{Clients: clients, Cells: cells, Stats: stats}
	i := 0
	for _, n := range clients {
		for _, cell := range cells {
			sw.Points = append(sw.Points, SweepPoint{Cell: cell, Clients: n, Result: results[i]})
			i++
		}
	}
	sw.reindex()
	return sw, nil
}

// reindex rebuilds the (cell, clients) lookup map over Points.
func (s *Sweep) reindex() {
	s.index = make(map[Cell]map[int]*SweepPoint, len(s.Cells))
	for i := range s.Points {
		p := &s.Points[i]
		m := s.index[p.Cell]
		if m == nil {
			m = make(map[int]*SweepPoint)
			s.index[p.Cell] = m
		}
		m[p.Clients] = p
	}
	s.indexed = len(s.Points)
}

// lookup resolves (cell, clients) through the index, rebuilding it if
// Points changed since the last build. CSV rendering and the sweep
// analyses hit this C×N times per call, so the old linear scan over all
// points was O(points²) per render.
func (s *Sweep) lookup(cell Cell, clients int) *SweepPoint {
	if s.index == nil || s.indexed != len(s.Points) {
		s.reindex()
	}
	return s.index[cell][clients]
}

// Column extracts one metric for one cell across the sweep's client counts,
// in the same order as Clients.
func (s *Sweep) Column(cell Cell, metric func(*Result) float64) []float64 {
	out := make([]float64, 0, len(s.Clients))
	for _, n := range s.Clients {
		if p := s.lookup(cell, n); p != nil {
			out = append(out, metric(p.Result))
		}
	}
	return out
}

// Point returns the sweep point for (cell, clients), or nil.
func (s *Sweep) Point(cell Cell, clients int) *SweepPoint {
	return s.lookup(cell, clients)
}

// Standard metric extractors for the paper's figures.
var (
	// MetricCOV is Figure 2's y-axis.
	MetricCOV = func(r *Result) float64 { return r.COV }
	// MetricAnalyticCOV is Figure 2's aggregated-Poisson reference.
	MetricAnalyticCOV = func(r *Result) float64 { return r.AnalyticCOV }
	// MetricThroughput is Figure 3's y-axis (packets delivered).
	MetricThroughput = func(r *Result) float64 { return float64(r.Delivered) }
	// MetricLossPct is Figure 4's y-axis.
	MetricLossPct = func(r *Result) float64 { return r.LossPct }
	// MetricTimeoutRatio is Figure 13's y-axis.
	MetricTimeoutRatio = func(r *Result) float64 { return r.TimeoutDupAckRatio }
)

// CSV renders the sweep as one CSV table for the given metric, with a
// clients column, one column per cell, and (optionally) the analytic
// Poisson reference first.
func (s *Sweep) CSV(metric func(*Result) float64, includePoisson bool) string {
	var sb strings.Builder
	sb.WriteString("clients")
	if includePoisson {
		sb.WriteString(",poisson")
	}
	for _, c := range s.Cells {
		sb.WriteString(",")
		sb.WriteString(c.String())
	}
	sb.WriteString("\n")
	for _, n := range s.Clients {
		fmt.Fprintf(&sb, "%d", n)
		if includePoisson {
			if p := s.Point(s.Cells[0], n); p != nil {
				fmt.Fprintf(&sb, ",%.6g", p.Result.AnalyticCOV)
			} else {
				sb.WriteString(",")
			}
		}
		for _, c := range s.Cells {
			if p := s.Point(c, n); p != nil {
				fmt.Fprintf(&sb, ",%.6g", metric(p.Result))
			} else {
				sb.WriteString(",")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
