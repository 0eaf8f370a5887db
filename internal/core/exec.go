package core

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"tcpburst/internal/runcache"
	"tcpburst/internal/runner"
)

// ExecOptions configures how a batch of experiments executes: worker-pool
// width, persistent result caching, per-job timeouts, and progress
// observation. The zero value runs GOMAXPROCS-wide with no cache — every
// simulation is independently seeded and deterministic, so parallel
// results are identical to serial ones.
type ExecOptions struct {
	// Jobs bounds the number of simulations running concurrently; <= 0
	// means GOMAXPROCS. Jobs == 1 reproduces the historical serial order.
	Jobs int
	// Cache, when non-nil, skips any job whose defaulted-config hash has a
	// stored digest and stores fresh digests after each run. Runs that
	// request trace series or packet logs always execute (their full
	// output is not part of the cached digest).
	Cache *runcache.Store
	// JobTimeout caps each simulation's wall-clock time; 0 means none.
	JobTimeout time.Duration
	// OnEvent observes the job lifecycle (queued/started/done/cached/
	// failed); calls are serialized by the pool. runner.Progress.Observe
	// plugs in directly.
	OnEvent func(runner.Event)
}

// Cache-key namespaces. Bump the version suffix when the stored encoding
// changes incompatibly; old entries simply stop hitting.
const (
	resultCacheKindPrefix = "result/v4/"
	chainCacheKind        = "chain/v3"
)

// resultCacheKind namespaces result digests by execution engine: a packet
// and a fluid run of byte-identical configurations measure different
// things and must never share a cache entry, even across versions of the
// Config type that encode them identically.
func resultCacheKind(c Config) string {
	return resultCacheKindPrefix + c.Backend.String()
}

// cacheable reports whether cfg's outcome is fully captured by its
// Summary: congestion-window traces, queue traces, and packet logs are
// not, so runs that request them bypass the cache entirely.
func cacheable(cfg Config) bool {
	return cfg.CwndSampleInterval <= 0 && !cfg.TraceQueue &&
		cfg.PacketLogCapacity <= 0 && cfg.TelemetryInterval <= 0
}

// RunBatch executes every configuration across a bounded worker pool and
// returns the results in input order. It is the execution substrate under
// RunSweep and RunReplications and is exported for callers with their own
// job lists (cmd/burstreport's trace section, custom studies). Failed jobs
// leave nil at their index and report a *runner.JobError via the joined
// error; see runner.Run for the full contract.
func RunBatch(ctx context.Context, cfgs []Config, exec ExecOptions) ([]*Result, runner.Stats, error) {
	defaulted := make([]Config, len(cfgs))
	jobs := make([]runner.Job[*Result], len(cfgs))
	for i, cfg := range cfgs {
		c := cfg.WithDefaults()
		defaulted[i] = c
		key := ""
		if exec.Cache != nil && cacheable(c) {
			if k, err := runcache.Key(resultCacheKind(c), c); err == nil {
				key = k
			}
		}
		jobs[i] = runner.Job[*Result]{
			Label: c.Label(),
			Key:   key,
			Do: func(ctx context.Context) (*Result, error) {
				return RunContext(ctx, c)
			},
		}
	}
	opts := runner.Options[*Result]{
		Jobs:         exec.Jobs,
		JobTimeout:   exec.JobTimeout,
		OnEvent:      exec.OnEvent,
		Weigh:        func(r *Result) uint64 { return r.SimEvents },
		WeighRecords: func(r *Result) uint64 { return r.TelemetryRecords },
	}
	if exec.Cache != nil {
		opts.Cache = exec.Cache
		opts.Encode = func(r *Result) ([]byte, error) {
			return json.Marshal(r.Summary())
		}
		opts.Decode = func(i int, data []byte) (*Result, error) {
			var s Summary
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, err
			}
			if s.SchemaVersion != SummarySchemaVersion {
				// Stale entry from an older encoding: treat as a miss so
				// the job re-runs rather than resurfacing misdecoded data.
				return nil, fmt.Errorf("cache entry schema %d, want %d", s.SchemaVersion, SummarySchemaVersion)
			}
			return ResultFromSummary(defaulted[i], s), nil
		}
	}
	return runner.Run(ctx, opts, jobs)
}

// RunChainBatch is RunBatch for parking-lot topologies. ChainResult is
// fully JSON-serializable, so cache entries store the whole result rather
// than a digest.
func RunChainBatch(ctx context.Context, cfgs []ChainConfig, exec ExecOptions) ([]*ChainResult, runner.Stats, error) {
	jobs := make([]runner.Job[*ChainResult], len(cfgs))
	for i, cfg := range cfgs {
		c := cfg.withDefaults()
		key := ""
		if exec.Cache != nil {
			if k, err := runcache.Key(chainCacheKind, c); err == nil {
				key = k
			}
		}
		jobs[i] = runner.Job[*ChainResult]{
			Label: fmt.Sprintf("chain %s/%s long=%d hop1=%d hop2=%d seed=%d",
				c.Protocol, c.Gateway, c.LongClients, c.Hop1Clients, c.Hop2Clients, c.Seed),
			Key: key,
			Do: func(ctx context.Context) (*ChainResult, error) {
				return RunParkingLotContext(ctx, c)
			},
		}
	}
	opts := runner.Options[*ChainResult]{
		Jobs:       exec.Jobs,
		JobTimeout: exec.JobTimeout,
		OnEvent:    exec.OnEvent,
		Weigh:      func(r *ChainResult) uint64 { return r.SimEvents },
	}
	if exec.Cache != nil {
		opts.Cache = exec.Cache
		opts.Encode = func(r *ChainResult) ([]byte, error) {
			return json.Marshal(r)
		}
		opts.Decode = func(_ int, data []byte) (*ChainResult, error) {
			var r ChainResult
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, err
			}
			if r.SchemaVersion != SummarySchemaVersion {
				return nil, fmt.Errorf("cache entry schema %d, want %d", r.SchemaVersion, SummarySchemaVersion)
			}
			return &r, nil
		}
	}
	return runner.Run(ctx, opts, jobs)
}
