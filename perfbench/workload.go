package main

import (
	"context"
	"fmt"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/runcache"
	"tcpburst/internal/runner"
	"tcpburst/internal/sim"
)

// setupHorizon is the simulated horizon of a set-up pass: long enough to
// validate, build every host, link and flow, and collect a Result, and too
// short for a single event to fire. A set-up pass runs without the result
// cache, whose writes belong to the full pass: on the 2-vCPU VM the
// benchmark was made on, paper_grid's 102 cache writes took 60–110 ms
// against 48 ms for the whole build, and varied far more from run to run.
const setupHorizon sim.Duration = 1

// workload is one named input set. Grid workloads run the paper's 6 cells ×
// 17 client counts through core.RunSweepContext; single workloads run one
// configuration through core.RunContext.
type workload struct {
	name string
	// grid selects the sweep path; otherwise base is one experiment.
	grid bool
	// cached runs the cold pass into a fresh runcache and follows it with
	// a warm pass that reads every job back.
	cached bool
	// packet marks the packet backend, which has a set-up/steady split.
	packet bool
	// base returns the workload's configuration for a seed; grid
	// workloads fill in Clients and the cell per point.
	base func(seed int64) core.Config
}

// paperGridHorizon shortens Table 1's 200 s so that a cold pass of the
// 102-run grid fits several times into one measurement; every other
// parameter is Table 1's.
const paperGridHorizon = 20 * time.Second

var workloads = []workload{
	{
		name:   "paper_grid",
		grid:   true,
		cached: true,
		packet: true,
		base: func(seed int64) core.Config {
			cfg := core.DefaultConfig(0, core.Reno, core.FIFO)
			cfg.Seed = seed
			cfg.Duration = paperGridHorizon
			return cfg
		},
	},
	{
		name:   "scale_rho09",
		packet: true,
		base: func(seed int64) core.Config {
			return rhoConfig(50_000, 0.9, 60*time.Second, seed)
		},
	},
	{
		name:   "overload_arrivals",
		packet: true,
		base: func(seed int64) core.Config {
			cfg := core.DefaultConfig(5_000, core.Reno, core.FIFO)
			cfg.Seed = seed
			cfg.Duration = 2 * time.Second
			return cfg
		},
	},
	{
		// overload_n500 is overload_arrivals with a tenth of the flows,
		// each sending ten times as often (1 ms mean interval): the same
		// offered load of about 129x capacity, the same ~1 M arrivals in
		// the same 2 s. Its per-flow state (RNG streams, senders) is about
		// 5 MB instead of 48 MB and it allocates a tenth as much per
		// event, so its time goes to simulation rather than to cache
		// misses and garbage collection, whose cost drifts with the load
		// on the host.
		name:   "overload_n500",
		packet: true,
		base: func(seed int64) core.Config {
			cfg := core.DefaultConfig(500, core.Reno, core.FIFO)
			cfg.Seed = seed
			cfg.MeanInterval = time.Millisecond
			cfg.Duration = 2 * time.Second
			return cfg
		},
	},
	{
		name: "fluid_grid",
		grid: true,
		base: func(seed int64) core.Config {
			cfg := core.DefaultConfig(0, core.Reno, core.FIFO)
			cfg.Backend = core.FluidBackend
			cfg.Seed = seed
			return cfg
		},
	},
}

// rhoConfig is BenchmarkShardedScaling's operating point: Reno/FIFO with a
// 20-packet buffer and the aggregate Poisson load pinned at rho times the
// bottleneck capacity.
func rhoConfig(n int, rho float64, horizon sim.Duration, seed int64) core.Config {
	cfg := core.DefaultConfig(n, core.Reno, core.FIFO)
	cfg.Seed = seed
	cfg.Duration = horizon
	cfg.BufferPackets = 20
	capacity := cfg.BottleneckRateBps / (8 * float64(cfg.PacketSize))
	cfg.MeanInterval = time.Duration(float64(time.Second) * float64(n) / (rho * capacity))
	return cfg
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// configs lists the defaulted configurations a pass over base runs, in the
// order the pass returns its results.
func (w workload) configs(base core.Config) []core.Config {
	if !w.grid {
		return []core.Config{base.WithDefaults()}
	}
	var out []core.Config
	for _, n := range core.DefaultSweepClients() {
		for _, cell := range core.PaperCells() {
			cfg := base
			cfg.Clients = n
			cfg.Protocol = cell.Protocol
			cfg.Gateway = cell.Gateway
			out = append(out, cfg.WithDefaults())
		}
	}
	return out
}

// passOptions selects how one pass executes. The zero value is the
// workload's own end-to-end path.
type passOptions struct {
	// cache, when set, stores (cold) or serves (warm) every job.
	cache *runcache.Store
	// onEvent observes runner job events; a single workload given one runs
	// through core.RunBatch instead of core.RunContext so its job is seen.
	onEvent func(runner.Event)
}

// pass runs the workload once over base and returns one result per
// configuration, in configs order.
func (w workload) pass(ctx context.Context, base core.Config, opt passOptions) ([]*core.Result, error) {
	exec := core.ExecOptions{Cache: opt.cache, OnEvent: opt.onEvent}
	if w.grid {
		sw, err := core.RunSweepContext(ctx, core.SweepOptions{Base: base, Exec: exec})
		if err != nil {
			return nil, err
		}
		out := make([]*core.Result, len(sw.Points))
		for i, p := range sw.Points {
			out[i] = p.Result
		}
		return out, nil
	}
	if opt.onEvent == nil && opt.cache == nil {
		res, err := core.RunContext(ctx, base)
		if err != nil {
			return nil, err
		}
		return []*core.Result{res}, nil
	}
	res, _, err := core.RunBatch(ctx, []core.Config{base}, exec)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// setupConfig returns base cut to the set-up horizon.
func setupConfig(base core.Config) core.Config {
	base.Duration = setupHorizon
	return base
}
