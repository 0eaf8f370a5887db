package core

import (
	"fmt"

	"tcpburst/internal/link"
	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
	"tcpburst/internal/tcp"
	"tcpburst/internal/telemetry"
)

// telem bundles one run's telemetry registry with the preregistered handle
// sets handed to each subsystem. A disabled run (TelemetryInterval == 0)
// carries a nil registry: every handle is then the zero value, every
// publication site a cheap no-op, and the simulation executes the exact
// event sequence it would without telemetry compiled in at all.
type telem struct {
	reg *telemetry.Registry

	link         link.Metrics
	tcp          tcp.Metrics
	queue        queue.Metrics
	appGenerated telemetry.Counter

	// cov accumulates per-RTT-window gateway arrival counts between
	// snapshots; nil when telemetry is disabled (so the arrival tap pays
	// one pointer test, same as the packet-log tap).
	cov *rttCOV

	sampler *telemetry.Sampler
	ring    *telemetry.Ring
}

// newTelem builds the registry and all subsystem handle sets, or an inert
// telem when cfg leaves telemetry disabled. It must run before the links,
// queues, and transports are constructed so the handles can ride in their
// configs.
func newTelem(cfg Config) *telem {
	t := &telem{}
	if cfg.TelemetryInterval <= 0 {
		return t
	}
	reg := telemetry.NewRegistry()
	t.reg = reg

	depthWidth := float64(cfg.BufferPackets) / 10
	if depthWidth < 1 {
		depthWidth = 1
	}
	t.link = link.Metrics{
		Arrivals:   reg.Counter("gw.arrivals"),
		Drops:      reg.Counter("gw.drops"),
		Departures: reg.Counter("gw.departures"),
		QueueDepth: reg.Histogram("gw.depth", depthWidth, 10),
	}
	t.tcp = tcp.Metrics{
		DataSent:        reg.Counter("tcp.data_sent"),
		Retransmits:     reg.Counter("tcp.retransmits"),
		Timeouts:        reg.Counter("tcp.timeouts"),
		FastRetransmits: reg.Counter("tcp.fast_rtx"),
		Delivered:       reg.Counter("tcp.delivered"),
		AcksSent:        reg.Counter("tcp.acks"),
	}
	t.queue = cfg.Gateway.spec().RegisterMetrics(reg)
	t.appGenerated = reg.Counter("app.generated")
	t.cov = newRTTCOV(cfg.RTT())
	return t
}

// enabled reports whether this run publishes telemetry.
func (t *telem) enabled() bool { return t.reg != nil }

// probeEnv says which live simulation objects this shard's registry may
// read. Probes run on the shard's own goroutine during windows, so a
// registry may only touch state its shard owns: foreign probes register
// under the same names with zero-returning functions instead. That keeps
// the column set (and its order) identical on every shard, which is what
// lets finishTelemetry merge per-shard snapshot rows by elementwise sum —
// every column has exactly one owning shard, so real + zeros = real.
type probeEnv struct {
	// sched is this shard's scheduler; sim.events reads its Fired count,
	// so the merged column is the total across shards.
	sched *sim.Scheduler
	// bottleneck is non-nil only on the gateway shard, which owns
	// queue.depth, gw.util, and the cov.rtt accumulator.
	bottleneck *link.Link
	flows      []*flow
	// shard and clientShard decide which cwnd/ssthresh probes are local.
	shard       int
	clientShard []int
	// sink, when non-nil, overrides the configured sink — sharded runs
	// sample into private per-shard rings and merge after the run.
	sink telemetry.Sink
}

// start registers the probes that need live simulation objects, resolves
// the sink, and starts the periodic sampler. Call it after the topology is
// built and before the scheduler runs.
func (t *telem) start(cfg Config, env probeEnv) error {
	if !t.enabled() {
		return nil
	}
	reg := t.reg
	zero := func() float64 { return 0 }

	if b := env.bottleneck; b != nil {
		reg.Probe("queue.depth", func() float64 {
			return float64(b.QueueLen())
		})
		// Bottleneck utilization over the last sampling interval, from the
		// delivered-bytes delta.
		intervalBits := cfg.BottleneckRateBps * cfg.TelemetryInterval.Seconds()
		var prevBytes uint64
		reg.Probe("gw.util", func() float64 {
			cur := b.Stats().DeliveredBytes
			delta := cur - prevBytes
			prevBytes = cur
			if intervalBits <= 0 {
				return 0
			}
			return float64(delta) * 8 / intervalBits
		})
	} else {
		reg.Probe("queue.depth", zero)
		reg.Probe("gw.util", zero)
	}
	sched := env.sched
	reg.Probe("sim.events", func() float64 {
		return float64(sched.Fired())
	})
	if env.bottleneck != nil {
		cov := t.cov
		reg.Probe("cov.rtt", func() float64 {
			return cov.sample(sched.Now())
		})
	} else {
		reg.Probe("cov.rtt", zero)
	}
	// Per-flow window probes for the same clients cwnd tracing would pick.
	targets := cfg.TraceClients
	if len(targets) == 0 {
		targets = defaultTraceClients(cfg.Clients)
	}
	for _, idx := range targets {
		sender := env.flows[idx-1].tcpSend
		if sender == nil {
			continue // UDP clients have no window to publish
		}
		if env.clientShard[idx-1] == env.shard {
			reg.Probe(fmt.Sprintf("cwnd.client%d", idx), sender.Cwnd)
			reg.Probe(fmt.Sprintf("ssthresh.client%d", idx), sender.Ssthresh)
		} else {
			reg.Probe(fmt.Sprintf("cwnd.client%d", idx), zero)
			reg.Probe(fmt.Sprintf("ssthresh.client%d", idx), zero)
		}
	}

	sink := env.sink
	if sink == nil {
		sink = cfg.TelemetrySink
		if cfg.TelemetrySinkFactory != nil {
			sink = cfg.TelemetrySinkFactory(cfg)
		}
		if sink == nil {
			t.ring = telemetry.NewRing(int(cfg.Duration/cfg.TelemetryInterval) + 2)
			sink = t.ring
		}
	}
	sampler, err := telemetry.NewSampler(env.sched, reg, cfg.TelemetryInterval, sink)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := sampler.Start(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	t.sampler = sampler
	return nil
}

// startTelemetry starts the per-shard samplers. Serial runs stream to the
// configured sink directly; sharded runs stream each shard into a private
// ring on the same virtual tick grid, merged into the configured sink by
// finishTelemetry after the run. Returns the private rings (nil serial).
func startTelemetry(cfg Config, env *buildEnv, bottleneck *link.Link, flows []*flow) ([]*telemetry.Ring, error) {
	if env.group == nil {
		return nil, env.tels[0].start(cfg, probeEnv{
			sched:       env.scheds[0],
			bottleneck:  bottleneck,
			flows:       flows,
			clientShard: env.place.client,
		})
	}
	if !env.tels[0].enabled() {
		return nil, nil
	}
	capacity := int(cfg.Duration/cfg.TelemetryInterval) + 2
	rings := make([]*telemetry.Ring, env.place.k)
	for s := range rings {
		rings[s] = telemetry.NewRing(capacity)
		pe := probeEnv{
			sched:       env.scheds[s],
			flows:       flows,
			shard:       s,
			clientShard: env.place.client,
			sink:        rings[s],
		}
		if s == env.place.gw {
			pe.bottleneck = bottleneck
		}
		if err := env.tels[s].start(cfg, pe); err != nil {
			return nil, err
		}
	}
	return rings, nil
}

// finishTelemetry closes the samplers and records the run's telemetry into
// res. Sharded runs merge the per-shard rings: rows on the same virtual
// tick sum elementwise (every column has one owning shard), the merged
// rows stream to the configured sink, and the per-shard registry exports
// sum map-wise. One caveat is inherent to sharding: each shard runs its
// own sampler event per tick, so SimEvents (and the sim.events column)
// count K sampler pops per interval instead of one — which is why the
// byte-identity and golden tests pin sharded runs with telemetry off.
func finishTelemetry(cfg Config, env *buildEnv, rings []*telemetry.Ring, res *Result) error {
	if env.group == nil {
		return env.tels[0].finish(res)
	}
	if rings == nil {
		return nil
	}
	for _, t := range env.tels {
		t.sampler.Sample()
		if err := t.sampler.Close(); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	n := rings[0].Len()
	for s, r := range rings {
		if uint64(r.Len()) != env.tels[s].sampler.Records() {
			return fmt.Errorf("telemetry: shard %d ring overflowed (%d rows kept of %d)", s, r.Len(), env.tels[s].sampler.Records())
		}
		if r.Len() != n {
			return fmt.Errorf("telemetry: shard %d recorded %d rows, shard 0 %d", s, r.Len(), n)
		}
	}

	sink := cfg.TelemetrySink
	if cfg.TelemetrySinkFactory != nil {
		sink = cfg.TelemetrySinkFactory(cfg)
	}
	var ring *telemetry.Ring
	if sink == nil {
		ring = telemetry.NewRing(n + 1)
		sink = ring
	}
	if err := sink.Begin(rings[0].Fields()); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	row := make([]float64, len(rings[0].Fields()))
	for i := 0; i < n; i++ {
		t0, r0 := rings[0].At(i)
		copy(row, r0)
		for s := 1; s < len(rings); s++ {
			ts, rs := rings[s].At(i)
			if ts != t0 { //burst:floateq-ok identical tick grids produce identical float timestamps
				return fmt.Errorf("telemetry: shard %d tick %v diverges from shard 0 tick %v", s, ts, t0)
			}
			for j, v := range rs {
				row[j] += v
			}
		}
		if err := sink.Record(t0, row); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	if err := sink.Flush(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}

	merged := env.tels[0].reg.Export()
	for _, t := range env.tels[1:] {
		e := t.reg.Export()
		for k, v := range e.Counters {
			merged.Counters[k] += v
		}
		for k, v := range e.Gauges {
			merged.Gauges[k] += v
		}
		for k, v := range e.Histograms {
			merged.Histograms[k] += v
		}
	}
	res.Telemetry = &merged
	res.TelemetryRecords = uint64(n)
	res.TelemetryRing = ring
	return nil
}

// finish takes the final off-grid snapshot (a no-op when the horizon lands
// on a tick), closes the stream, and records the registry's final state
// into res. The sink's first error surfaces here: a run whose telemetry
// stream failed is a failed run.
func (t *telem) finish(res *Result) error {
	if t.sampler == nil {
		return nil
	}
	t.sampler.Sample()
	if err := t.sampler.Close(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	export := t.reg.Export()
	res.Telemetry = &export
	res.TelemetryRecords = t.sampler.Records()
	res.TelemetryRing = t.ring
	return nil
}

// rttCOV tracks the paper's burstiness measure as a live time series: data
// arrivals at the gateway land in RTT-sized bins, and each telemetry
// snapshot reads the coefficient of variation of the bins completed since
// the previous snapshot, then resets — so the "cov.rtt" column shows
// congestion-control modulation developing during a run rather than one
// whole-run number.
type rttCOV struct {
	window    sim.Duration
	windowEnd sim.Time
	count     float64
	w         stats.Welford
	last      float64
}

func newRTTCOV(window sim.Duration) *rttCOV {
	return &rttCOV{window: window, windowEnd: sim.TimeZero.Add(window)}
}

// roll closes every bin that ends at or before now, recording zeros for
// empty ones (matching stats.WindowCounter's binning).
func (c *rttCOV) roll(now sim.Time) {
	for !now.Before(c.windowEnd) {
		c.w.Add(c.count)
		c.count = 0
		c.windowEnd = c.windowEnd.Add(c.window)
	}
}

// observe records one data-packet arrival.
func (c *rttCOV) observe(now sim.Time) {
	c.roll(now)
	c.count++
}

// sample returns the c.o.v. of the bins completed since the last sample.
// Intervals too short to close two bins hold the previous value instead of
// collapsing to zero.
func (c *rttCOV) sample(now sim.Time) float64 {
	c.roll(now)
	if c.w.Count() >= 2 {
		c.last = c.w.COV()
		c.w = stats.Welford{}
	}
	return c.last
}
