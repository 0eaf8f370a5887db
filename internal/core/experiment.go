package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tcpburst/internal/link"
	"tcpburst/internal/node"
	"tcpburst/internal/packet"
	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
	"tcpburst/internal/tcp"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/trace"
	"tcpburst/internal/traffic"
	"tcpburst/internal/transport"
)

// Node addressing: the server is address 1; client i (0-based) is 100+i.
const (
	serverAddr packet.Addr = 1
	// clientAddrOff packs client addresses directly after the server so
	// the gateway routing table is a dense slice indexed by address.
	clientAddrOff packet.Addr = 2
)

// FlowResult captures one client stream's outcome.
type FlowResult struct {
	// Client is the 1-based client index, matching the paper's legends.
	Client int
	// Protocol is the transport this client ran (varies under Config.Mix).
	Protocol Protocol
	// Generated counts application packets produced by the Poisson source.
	Generated uint64
	// Delivered counts packets the server application received (in order
	// for TCP).
	Delivered uint64
	// Counters holds transport-level counters (synthesized for UDP).
	Counters tcp.Counters
}

// QueueStats summarizes the bottleneck queue occupancy, sampled every
// 10 ms of virtual time throughout the run.
type QueueStats struct {
	// Mean and Max are the average and peak sampled queue lengths.
	Mean, Max float64
	// P95 is the 95th-percentile sampled queue length.
	P95 float64
	// FullFrac is the fraction of samples at or above 95% of the buffer
	// capacity — how often the gateway teeters on overflow.
	FullFrac float64
}

// REDStats summarizes the RED gateway's behavior when the gateway runs RED.
type REDStats struct {
	EarlyDrops  uint64
	ForcedDrops uint64
	Marks       uint64
	FinalAvg    float64
}

// AQMStats is the generic discipline counter snapshot for disciplines
// beyond the paper's fifo/red/drr: control-law drops, buffer-overflow drops,
// ECN marks, admission-control sheds, and the discipline's terminal
// control variable (PIE's drop probability, a bucket's remaining tokens).
type AQMStats struct {
	EarlyDrops  uint64
	ForcedDrops uint64
	Marks       uint64
	Shed        uint64
	FinalAvg    float64
}

// Result aggregates everything one experiment measures.
type Result struct {
	// Config echoes the (defaulted) configuration that produced the run.
	Config Config

	// COV is the measured coefficient of variation of data-packet
	// arrivals at the gateway per round-trip propagation delay (Figure 2).
	COV float64
	// AnalyticCOV is the c.o.v. of the unmodulated aggregated Poisson
	// process, 1/sqrt(N·λ·RTT) — the reference curve in Figure 2.
	AnalyticCOV float64
	// WindowCounts is the per-RTT arrival count series behind COV.
	WindowCounts []float64
	// MeanWindowCount is the average number of arrivals per RTT window.
	MeanWindowCount float64

	// Delivered is the total number of packets successfully transmitted
	// to the server applications (Figure 3).
	Delivered uint64
	// Generated is the total number of application packets produced.
	Generated uint64
	// DataSent counts transport-level data transmissions including
	// retransmissions.
	DataSent uint64
	// ForwardDrops counts data packets lost on the client→server path:
	// gateway-buffer drops, access-buffer drops, and random wire losses.
	ForwardDrops uint64
	// BottleneckDrops counts drops at the gateway's bottleneck queue.
	BottleneckDrops uint64
	// AckDrops counts acknowledgment drops on the reverse path.
	AckDrops uint64
	// WireLosses counts packets lost to random (WireLossProb) errors on
	// the bottleneck wire (extension).
	WireLosses uint64
	// LossPct is 100·ForwardDrops/DataSent (Figure 4).
	LossPct float64
	// Utilization is the bottleneck's delivered-bits fraction of capacity.
	Utilization float64

	// Timeouts and FastRetransmits aggregate the per-flow counters; their
	// ratio is Figure 13's y-axis.
	Timeouts           uint64
	FastRetransmits    uint64
	TimeoutDupAckRatio float64

	// JainFairness is Jain's index over per-flow delivered counts,
	// quantifying the bandwidth-sharing contrast of Figures 10–12.
	JainFairness float64
	// DelayMeanSec and DelayP95Sec summarize the one-way network delay
	// (transmission to arrival, including queueing) of data packets —
	// the end-user QoS measure the paper's introduction motivates.
	DelayMeanSec, DelayP95Sec float64
	// Hurst is the variance-time Hurst estimate of the window-count
	// series (self-similarity extension).
	Hurst float64

	// Queue summarizes the bottleneck queue occupancy over the run.
	Queue QueueStats
	// Fluid carries the mean-field solver's outcome when the run executed
	// on the fluid backend; nil for packet runs.
	Fluid *FluidStats
	// PacketLog retains the most recent bottleneck packet events when
	// Config.PacketLogCapacity was set.
	PacketLog *trace.PacketLog
	// RED carries gateway drop/mark detail when the RED discipline ran.
	RED *REDStats
	// AQM carries the generic discipline counters when a discipline beyond
	// the paper's fifo/red/drr ran and reports stats.
	AQM *AQMStats

	// CwndTraces holds per-client congestion-window series when tracing
	// was enabled (Figures 5–12); QueueTrace the bottleneck queue length.
	CwndTraces []*trace.Series
	QueueTrace *trace.Series
	// CwndSyncIndex quantifies the paper's "dependency between the
	// congestion-control decisions of multiple TCP streams": the mean
	// pairwise Pearson correlation of the traced flows'
	// window-*decrease* indicator series. Near 0 when flows back off
	// independently; rising toward 1 as they halve in lockstep. Zero
	// unless at least two clients were traced.
	CwndSyncIndex float64

	// SimEvents counts the discrete events the kernel executed for this
	// run — the work measure behind the runner's events/sec telemetry.
	SimEvents uint64
	// SchedOps counts scheduler slot filings — the wheel/heap traffic the
	// run generated. Burst-train batching executes the same SimEvents
	// while filing fewer slots, so SchedOps/SimEvents is the measured
	// ops-per-event reduction the batching bench reports. Not part of the
	// Summary (it is an implementation cost, not simulation behavior).
	SchedOps uint64

	// Telemetry carries the registry's final counter/gauge/histogram state
	// when Config.TelemetryInterval was set; nil otherwise.
	Telemetry *telemetry.Export
	// TelemetryRecords counts the snapshot records streamed to the sink.
	TelemetryRecords uint64
	// TelemetryRing holds the in-memory snapshot buffer when telemetry ran
	// without an explicit sink; nil otherwise.
	TelemetryRing *telemetry.Ring

	// Flows holds per-client outcomes.
	Flows []FlowResult
	// ByProtocol aggregates per-protocol totals; with a homogeneous
	// Config it has a single entry, under Config.Mix one per block
	// protocol (extension: protocol-competition studies).
	ByProtocol map[Protocol]ProtocolTotals
}

// ProtocolTotals aggregates the flows of one protocol in a (possibly
// mixed) experiment.
type ProtocolTotals struct {
	Flows           int
	Generated       uint64
	Delivered       uint64
	DataSent        uint64
	Timeouts        uint64
	FastRetransmits uint64
	// JainFairness is computed within the protocol's own flows.
	JainFairness float64
}

// Run executes one experiment to completion and returns its measurements.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the simulation polls ctx from
// inside the event loop (every 100 ms of virtual time) and aborts with
// ctx.Err() once it is canceled or past its deadline. The poll events are
// scheduled unconditionally so runs with and without a cancelable context
// execute identical event sequences.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend == FluidBackend {
		return runFluidContext(ctx, cfg)
	}

	// One scheduler, packet pool, and telemetry registry per shard (one of
	// each when serial). The serial and sharded builds share every code
	// path below: RNG forks and lane allocations happen in build order, so
	// a single build sequence is what keeps the two modes bit-identical.
	env := newBuildEnv(cfg)
	place := env.place
	rng := sim.NewRNG(cfg.Seed)

	// sched/pool/tel of the gateway shard, where the bottleneck, its taps,
	// the queue probe, and the context watchdog live.
	sched := env.scheds[place.gw]
	pool := env.pools[place.gw]
	tel := env.tels[place.gw]

	server := node.NewHost(serverAddr)
	server.SetPool(env.pools[place.srv])
	gateway := node.NewGateway(0)
	gateway.SetPool(pool)
	// gwDeliver executes a gateway delivery on whatever shard the barrier
	// routes it to; the routing table is immutable after build and every
	// egress link lives on its packet's destination shard.
	gwDeliver := func(arg any) { gateway.Receive(arg.(*packet.Packet)) }
	env.wireGatewayCrossings(gwDeliver)

	// Bottleneck gateway→server link with the discipline under study.
	bottleneckQ, err := buildGatewayQueue(cfg, rng, tel)
	if err != nil {
		return nil, err
	}
	if drr, ok := bottleneckQ.(*queue.DRR); ok {
		// Longest-queue eviction consumes the displaced packet inside the
		// discipline; reclaim it there.
		drr.OnEvict(pool.Put)
	}
	bottleneckLinkCfg := link.Config{
		Name:     "gw->server",
		RateBps:  cfg.BottleneckRateBps,
		Delay:    cfg.BottleneckDelay,
		Queue:    bottleneckQ,
		Dst:      server,
		Pool:     pool,
		Metrics:  tel.link,
		Lane:     env.lanes.Next(),
		XDeliver: env.xDeliverTo(place.gw, place.srv, func(arg any) { server.Receive(arg.(*packet.Packet)) }),

		DisableBatching: cfg.DisableBatching,
	}
	if cfg.WireLossProb > 0 {
		bottleneckLinkCfg.LossProb = cfg.WireLossProb
		bottleneckLinkCfg.LossRNG = rng.Fork(1 << 21)
	}
	bottleneck, err := link.New(sched, bottleneckLinkCfg)
	if err != nil {
		return nil, err
	}
	if err := gateway.AddRoute(serverAddr, bottleneck); err != nil {
		return nil, err
	}

	// Reverse bottleneck server→gateway for acknowledgments; the paper
	// keeps it uncongested, but its rate and buffer are overridable for
	// ACK-compression studies.
	reverseRate := cfg.BottleneckRateBps
	if cfg.ReverseRateBps > 0 {
		reverseRate = cfg.ReverseRateBps
	}
	reverseBuf := cfg.AccessBufferPackets
	if cfg.ReverseBufferPackets > 0 {
		reverseBuf = cfg.ReverseBufferPackets
	}
	// The shared ACK-return link can never fill when ACKs drain at least
	// as fast as the data that clocks them: every data packet reaches the
	// server through the single bottleneck serializer, so sink ACKs are
	// spaced at least one data serialization apart, and with ACK
	// serialization no slower the queue never holds more than a couple of
	// ACKs. Delayed ACKs break the clocking — every flow's ACK timer can
	// flush on the same instant — so the guarantee needs per-arrival acking
	// throughout (and a little capacity slack for ties at the boundary).
	serverOutOverprov := reverseBuf >= 16 &&
		sim.SerializationDelay(cfg.AckSize, reverseRate) <= sim.SerializationDelay(cfg.PacketSize, cfg.BottleneckRateBps)
	for i := 0; serverOutOverprov && i < cfg.Clients; i++ {
		if cfg.clientProtocol(i) == RenoDelayAck {
			serverOutOverprov = false
		}
	}
	serverOut, err := link.New(env.scheds[place.srv], link.Config{
		Name:     "server->gw",
		RateBps:  reverseRate,
		Delay:    cfg.BottleneckDelay,
		Queue:    queue.NewFIFO(reverseBuf),
		Dst:      gateway,
		Pool:     env.pools[place.srv],
		Lane:     env.lanes.Next(),
		XDeliver: env.xDeliverToClient(gwDeliver),

		DisableBatching: cfg.DisableBatching,
		Overprovisioned: serverOutOverprov,
	})
	if err != nil {
		return nil, err
	}

	// The paper's measurement point: data packets entering the gateway,
	// binned per round-trip propagation delay.
	counter, err := stats.NewWindowCounter(cfg.RTT())
	if err != nil {
		return nil, err
	}
	counter.Open(sim.TimeZero)
	var pktLog *trace.PacketLog
	if cfg.PacketLogCapacity > 0 {
		pktLog = trace.NewPacketLog(cfg.PacketLogCapacity)
		bottleneck.OnDrop(func(now sim.Time, p *packet.Packet) {
			pktLog.RecordPacket(now, trace.EventDrop, bottleneck.Name(), p)
		})
	}
	covTap := tel.cov
	bottleneck.OnArrival(func(now sim.Time, p *packet.Packet) {
		if p.IsData() {
			counter.Observe(now)
			if covTap != nil {
				covTap.observe(now)
			}
		}
		if pktLog != nil {
			pktLog.RecordPacket(now, trace.EventArrival, bottleneck.Name(), p)
		}
	})

	flows, accessLinks, reverseLinks, err := buildClients(cfg, env, rng, gateway, server, serverOut)
	if err != nil {
		return nil, err
	}

	// Always-on queue-occupancy probe (10 ms grain); read-only, so it
	// cannot perturb the experiment. Lives on the gateway shard.
	queueSamples := make([]float64, 0, int(cfg.Duration/(10*time.Millisecond))+1)
	var sampleQueue func()
	sampleQueue = func() {
		queueSamples = append(queueSamples, float64(bottleneck.QueueLen()))
		sched.After(10*time.Millisecond, sampleQueue)
	}
	sched.After(10*time.Millisecond, sampleQueue)

	sampler, cwndSeries, queueSeries, err := buildTracing(cfg, sched, flows, bottleneck)
	if err != nil {
		return nil, err
	}
	rings, err := startTelemetry(cfg, env, bottleneck, flows)
	if err != nil {
		return nil, err
	}

	for _, f := range flows {
		f.gen.Start()
	}
	if sampler != nil {
		sampler.Start()
	}

	watchContext(ctx, sched)

	horizon := sim.TimeZero.Add(cfg.Duration)
	if env.group != nil {
		err = env.group.Run(horizon)
	} else {
		err = sched.Run(horizon)
	}
	if err != nil {
		if errors.Is(err, sim.ErrStopped) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("run experiment: %w", err)
	}
	for _, f := range flows {
		f.gen.Stop()
	}
	if sampler != nil {
		sampler.Stop()
	}

	res := collect(cfg, flows, counter, horizon, bottleneck, serverOut, accessLinks, reverseLinks, bottleneckQ, cwndSeries, queueSeries)
	res.Queue = summarizeQueue(queueSamples, cfg.BufferPackets)
	res.PacketLog = pktLog
	res.SimEvents = 0
	for _, s := range env.scheds {
		res.SimEvents += s.Fired()
		res.SchedOps += s.ScheduledOps()
	}
	// Serialization-pipelined links credit elided serialize-done events at
	// delivery; completions in flight at the horizon settle here so
	// SimEvents counts exactly what the per-event schedule fired.
	res.SimEvents += bottleneck.FinishVirtual(horizon) + serverOut.FinishVirtual(horizon)
	for _, l := range accessLinks {
		res.SimEvents += l.FinishVirtual(horizon)
	}
	for _, l := range reverseLinks {
		res.SimEvents += l.FinishVirtual(horizon)
	}
	if err := finishTelemetry(cfg, env, rings, res); err != nil {
		return nil, err
	}
	return res, nil
}

// watchContext wires ctx into the single-threaded event loop: a recurring
// probe event checks ctx and stops the scheduler once it is done. Polling
// in virtual time keeps the kernel deterministic — the probe never touches
// simulation state or RNG streams.
func watchContext(ctx context.Context, sched *sim.Scheduler) {
	const probe = 100 * time.Millisecond // virtual time between polls
	var tick func()
	tick = func() {
		if ctx.Err() != nil {
			sched.Stop()
			return
		}
		sched.After(probe, tick)
	}
	sched.After(probe, tick)
}

// decreaseIndicator maps a congestion-window trace to a binary series that
// is 1 wherever the window shrank since the previous sample — the
// "halving events" whose cross-flow correlation the paper blames for
// aggregate burstiness.
func decreaseIndicator(values []float64) []float64 {
	out := make([]float64, len(values))
	for i := 1; i < len(values); i++ {
		if values[i] < values[i-1] {
			out[i] = 1
		}
	}
	return out
}

// summarizeQueue reduces the sampled queue lengths to summary statistics.
func summarizeQueue(samples []float64, capacity int) QueueStats {
	if len(samples) == 0 {
		return QueueStats{}
	}
	w := stats.Summarize(samples)
	var max float64
	nearFull := 0
	threshold := 0.95 * float64(capacity)
	for _, s := range samples {
		if s > max {
			max = s
		}
		if s >= threshold {
			nearFull++
		}
	}
	return QueueStats{
		Mean:     w.Mean(),
		Max:      max,
		P95:      stats.Quantile(samples, 0.95),
		FullFrac: float64(nearFull) / float64(len(samples)),
	}
}

// flow bundles one client's components.
type flow struct {
	client  int // 1-based
	proto   Protocol
	gen     traffic.Generator
	tcpSend *tcp.Sender          // nil for UDP
	udpSend *transport.UDPSender // nil for TCP
	tcpSink *tcp.Sink
	udpSink *transport.UDPSink
}

// delivered returns packets received by the server application.
func (f *flow) delivered() uint64 {
	if f.tcpSink != nil {
		return f.tcpSink.Delivered()
	}
	return f.udpSink.Delivered()
}

// delays returns the flow's one-way delay distribution.
func (f *flow) delays() *stats.DelayDist {
	if f.tcpSink != nil {
		return f.tcpSink.Delays()
	}
	return f.udpSink.Delays()
}

// counters returns transport counters, synthesized for UDP.
func (f *flow) counters() tcp.Counters {
	if f.tcpSend != nil {
		return f.tcpSend.Counters()
	}
	sent := f.udpSend.Sent()
	return tcp.Counters{DataSent: sent, Submitted: sent}
}

// buildGatewayQueue constructs the bottleneck discipline through the
// registry. The RNG closure forks the seed stream (1<<20) at this point of
// the build sequence only for disciplines that draw randomness (RED, PIE),
// so a deterministic discipline leaves every downstream stream untouched.
func buildGatewayQueue(cfg Config, rng *sim.RNG, tel *telem) (queue.Discipline, error) {
	return queue.Build(cfg.Gateway.spec(), queue.BuildContext{
		Capacity:       cfg.BufferPackets,
		PacketSize:     cfg.PacketSize,
		MeanPacketTime: sim.SerializationDelay(cfg.PacketSize, cfg.BottleneckRateBps),
		RNG:            func() *sim.RNG { return rng.Fork(1 << 20) },
		Metrics:        tel.queue,
	})
}

// buildClients wires every client host, its access links, transport agents,
// and Poisson source. Each client's sender-side components live on its
// shard; the sink side (receiver, delayed-ACK timers, reverse bottleneck
// egress) lives on the server shard. Serial runs collapse both to shard 0.
func buildClients(
	cfg Config,
	env *buildEnv,
	rng *sim.RNG,
	gateway *node.Gateway,
	server *node.Host,
	serverOut *link.Link,
) ([]*flow, []*link.Link, []*link.Link, error) {
	flows := make([]*flow, 0, cfg.Clients)
	accessLinks := make([]*link.Link, 0, cfg.Clients)
	reverseLinks := make([]*link.Link, 0, cfg.Clients)

	srvSched := env.scheds[env.place.srv]
	srvPool := env.pools[env.place.srv]
	srvTel := env.tels[env.place.srv]

	// Heterogeneous-RTT extension: draw per-client access delays from a
	// dedicated stream so enabling jitter does not perturb the traffic
	// streams.
	var jitterRNG *sim.RNG
	if cfg.ClientDelayJitter > 0 {
		jitterRNG = rng.Fork(1 << 22)
	}

	for i := 0; i < cfg.Clients; i++ {
		addr := clientAddrOff + packet.Addr(i)
		flowID := packet.FlowID(i + 1)
		cs := env.place.client[i]
		sched := env.scheds[cs]
		pool := env.pools[cs]
		tel := env.tels[cs]
		host := node.NewHost(addr)
		host.SetPool(pool)

		delay := cfg.ClientDelay
		if jitterRNG != nil {
			delay += sim.Duration(jitterRNG.Uniform(0, float64(cfg.ClientDelayJitter)))
		}

		proto := cfg.clientProtocol(i)
		// A TCP client's access and reverse queues can never fill when the
		// buffer dwarfs the window: in-network packets of one flow are
		// bounded by a window of originals plus a window of go-back-N
		// retransmission copies, so capacity ≥ 2·MaxWindow guarantees
		// drop-free operation and unlocks the link layer's serialization
		// pipelining. UDP clients are open-loop — nothing bounds their
		// backlog — so their links keep the per-event path.
		overprov := proto.IsTCP() && cfg.AccessBufferPackets >= 2*cfg.MaxWindow

		access, err := link.New(sched, link.Config{
			Name:     fmt.Sprintf("client%d->gw", i+1),
			RateBps:  cfg.ClientRateBps,
			Delay:    delay,
			Queue:    queue.NewFIFO(cfg.AccessBufferPackets),
			Dst:      gateway,
			Pool:     pool,
			Lane:     env.lanes.Next(),
			XDeliver: env.crossToGw[cs],

			DisableBatching: cfg.DisableBatching,
			Overprovisioned: overprov,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		reverse, err := link.New(sched, link.Config{
			Name:    fmt.Sprintf("gw->client%d", i+1),
			RateBps: cfg.ClientRateBps,
			Delay:   delay,
			Queue:   queue.NewFIFO(cfg.AccessBufferPackets),
			Dst:     host,
			Pool:    pool,
			Lane:    env.lanes.Next(),

			DisableBatching: cfg.DisableBatching,
			Overprovisioned: overprov,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		if err := gateway.AddRoute(addr, reverse); err != nil {
			return nil, nil, nil, err
		}
		accessLinks = append(accessLinks, access)
		reverseLinks = append(reverseLinks, reverse)

		f := &flow{client: i + 1, proto: proto}
		var src transport.Source
		if proto.IsTCP() {
			tcpCfg := tcp.Config{
				Flow:              flowID,
				Src:               addr,
				Dst:               serverAddr,
				Variant:           proto.TCPVariant(),
				PacketSize:        cfg.PacketSize,
				AckSize:           cfg.AckSize,
				MaxWindow:         cfg.MaxWindow,
				MinRTO:            cfg.MinRTO,
				DelayedAcks:       proto == RenoDelayAck,
				DelayedAckTimeout: cfg.DelayedAckTimeout,
				Vegas:             cfg.Vegas,
				Sched:             sched,
				Pool:              pool,
				Metrics:           tel.tcp,
				DisableBatching:   cfg.DisableBatching,
			}
			sendCfg := tcpCfg
			sendCfg.Out = access
			sender, err := tcp.NewSender(sendCfg)
			if err != nil {
				return nil, nil, nil, err
			}
			sinkCfg := tcpCfg
			sinkCfg.Out = serverOut
			sinkCfg.Sched = srvSched
			sinkCfg.Pool = srvPool
			sinkCfg.Metrics = srvTel.tcp
			sink, err := tcp.NewSink(sinkCfg)
			if err != nil {
				return nil, nil, nil, err
			}
			host.Bind(flowID, sender)
			server.Bind(flowID, sink)
			f.tcpSend, f.tcpSink = sender, sink
			src = sender
		} else {
			sender, err := transport.NewUDPSender(transport.UDPConfig{
				Flow:       flowID,
				Src:        addr,
				Dst:        serverAddr,
				PacketSize: cfg.PacketSize,
				Out:        access,
				Now:        sched.Now,
				Pool:       pool,
			})
			if err != nil {
				return nil, nil, nil, err
			}
			sink := transport.NewUDPSinkWithClock(srvSched.Now)
			sink.SetPool(srvPool)
			host.Bind(flowID, sender)
			server.Bind(flowID, sink)
			f.udpSend, f.udpSink = sender, sink
			src = sender
		}

		gen, err := buildGenerator(cfg, sched, rng.Fork(int64(i+1)), src, tel.appGenerated)
		if err != nil {
			return nil, nil, nil, err
		}
		f.gen = gen
		flows = append(flows, f)
	}
	return flows, accessLinks, reverseLinks, nil
}

// buildGenerator constructs one client's workload source per the traffic
// model.
func buildGenerator(cfg Config, sched *sim.Scheduler, rng *sim.RNG, dst transport.Source, generated telemetry.Counter) (traffic.Generator, error) {
	switch cfg.Traffic {
	case TrafficParetoOnOff:
		// Derive the in-burst interval so the long-run mean rate still
		// equals 1/MeanInterval: rate = dutyCycle / burstInterval.
		duty := float64(cfg.MeanOnTime) / float64(cfg.MeanOnTime+cfg.MeanOffTime)
		burstInterval := sim.Duration(float64(cfg.MeanInterval) * duty)
		if burstInterval < 1 {
			burstInterval = 1
		}
		return traffic.NewParetoOnOff(traffic.ParetoOnOffConfig{
			PacketInterval: burstInterval,
			MeanOn:         cfg.MeanOnTime,
			MeanOff:        cfg.MeanOffTime,
			Shape:          cfg.ParetoShape,
			Dst:            dst,
			Sched:          sched,
			RNG:            rng,
			Generated:      generated,
		})
	default:
		return traffic.NewPoisson(traffic.PoissonConfig{
			MeanInterval: cfg.MeanInterval,
			Dst:          dst,
			Sched:        sched,
			RNG:          rng,
			Generated:    generated,
		})
	}
}

// buildTracing sets up the cwnd/queue samplers behind Figures 5–12.
func buildTracing(
	cfg Config,
	sched *sim.Scheduler,
	flows []*flow,
	bottleneck *link.Link,
) (*trace.Sampler, []*trace.Series, *trace.Series, error) {
	if cfg.CwndSampleInterval <= 0 {
		return nil, nil, nil, nil
	}
	sampler, err := trace.NewSampler(sched, cfg.CwndSampleInterval)
	if err != nil {
		return nil, nil, nil, err
	}

	var cwndSeries []*trace.Series
	targets := cfg.TraceClients
	if len(targets) == 0 {
		targets = defaultTraceClients(cfg.Clients)
	}
	for _, idx := range targets {
		sender := flows[idx-1].tcpSend
		if sender == nil {
			// UDP clients (plain or in a mix) have no window to trace.
			continue
		}
		cwndSeries = append(cwndSeries,
			sampler.Track(fmt.Sprintf("client%d", idx), sender.Cwnd))
	}
	var queueSeries *trace.Series
	if cfg.TraceQueue {
		queueSeries = sampler.Track("gateway_queue", func() float64 {
			return float64(bottleneck.QueueLen())
		})
	}
	return sampler, cwndSeries, queueSeries, nil
}

// defaultTraceClients picks clients 1, N/2 and N, mirroring the paper's
// "client 1, 10, 20" style selections.
func defaultTraceClients(n int) []int {
	switch {
	case n <= 1:
		return []int{1}
	case n == 2:
		return []int{1, 2}
	default:
		mid := (n + 1) / 2
		return []int{1, mid, n}
	}
}

// collect assembles the Result from the finished simulation.
func collect(
	cfg Config,
	flows []*flow,
	counter *stats.WindowCounter,
	horizon sim.Time,
	bottleneck, serverOut *link.Link,
	accessLinks, reverseLinks []*link.Link,
	bottleneckQ queue.Discipline,
	cwndSeries []*trace.Series,
	queueSeries *trace.Series,
) *Result {
	counts := counter.Close(horizon)
	if cfg.Warmup > 0 {
		skip := int(cfg.Warmup / cfg.RTT())
		if skip > len(counts) {
			skip = len(counts)
		}
		counts = counts[skip:]
	}
	countStats := stats.Summarize(counts)

	res := &Result{
		Config:          cfg,
		COV:             countStats.COV(),
		AnalyticCOV:     stats.PoissonAggregateCOV(cfg.Clients, cfg.Lambda(), cfg.RTT().Seconds()),
		WindowCounts:    counts,
		MeanWindowCount: countStats.Mean(),
		Hurst:           stats.HurstVarianceTime(counts),
		CwndTraces:      cwndSeries,
		QueueTrace:      queueSeries,
	}
	if len(cwndSeries) >= 2 {
		series := make([][]float64, len(cwndSeries))
		for i, s := range cwndSeries {
			series[i] = decreaseIndicator(s.Values())
		}
		res.CwndSyncIndex = stats.MeanPairwiseCorrelation(series)
	}

	perFlowDelivered := make([]float64, 0, len(flows))
	perProtoDelivered := make(map[Protocol][]float64)
	res.ByProtocol = make(map[Protocol]ProtocolTotals)
	for _, f := range flows {
		c := f.counters()
		fr := FlowResult{
			Client:    f.client,
			Protocol:  f.proto,
			Generated: f.gen.Generated(),
			Delivered: f.delivered(),
			Counters:  c,
		}
		res.Flows = append(res.Flows, fr)
		res.Generated += fr.Generated
		res.Delivered += fr.Delivered
		res.DataSent += c.DataSent
		res.Timeouts += c.Timeouts
		res.FastRetransmits += c.FastRetransmits
		perFlowDelivered = append(perFlowDelivered, float64(fr.Delivered))

		pt := res.ByProtocol[f.proto]
		pt.Flows++
		pt.Generated += fr.Generated
		pt.Delivered += fr.Delivered
		pt.DataSent += c.DataSent
		pt.Timeouts += c.Timeouts
		pt.FastRetransmits += c.FastRetransmits
		res.ByProtocol[f.proto] = pt
		perProtoDelivered[f.proto] = append(perProtoDelivered[f.proto], float64(fr.Delivered))
	}
	for proto, delivered := range perProtoDelivered {
		pt := res.ByProtocol[proto]
		pt.JainFairness = stats.JainIndex(delivered)
		res.ByProtocol[proto] = pt
	}

	var delays stats.DelayDist
	for _, f := range flows {
		delays.Merge(f.delays())
	}
	res.DelayMeanSec = delays.Mean()
	res.DelayP95Sec = delays.P95()

	res.BottleneckDrops = bottleneck.Stats().Drops
	res.WireLosses = bottleneck.Stats().WireLosses
	res.ForwardDrops = res.BottleneckDrops + res.WireLosses
	for _, l := range accessLinks {
		res.ForwardDrops += l.Stats().Drops
	}
	res.AckDrops = serverOut.Stats().Drops
	for _, l := range reverseLinks {
		res.AckDrops += l.Stats().Drops
	}
	if res.DataSent > 0 {
		res.LossPct = 100 * float64(res.ForwardDrops) / float64(res.DataSent)
	}
	capacityBits := cfg.BottleneckRateBps * cfg.Duration.Seconds()
	if capacityBits > 0 {
		res.Utilization = float64(bottleneck.Stats().DeliveredBytes) * 8 / capacityBits
	}
	if res.FastRetransmits > 0 {
		res.TimeoutDupAckRatio = float64(res.Timeouts) / float64(res.FastRetransmits)
	}
	res.JainFairness = stats.JainIndex(perFlowDelivered)

	if sr, ok := bottleneckQ.(queue.StatsReporter); ok {
		st := sr.DisciplineStats()
		switch cfg.Gateway.spec().Reporting() {
		case queue.ReportRED:
			res.RED = &REDStats{
				EarlyDrops:  st.EarlyDrops,
				ForcedDrops: st.ForcedDrops,
				Marks:       st.Marks,
				FinalAvg:    st.FinalAvg,
			}
		case queue.ReportAQM:
			res.AQM = &AQMStats{
				EarlyDrops:  st.EarlyDrops,
				ForcedDrops: st.ForcedDrops,
				Marks:       st.Marks,
				Shed:        st.Shed,
				FinalAvg:    st.FinalAvg,
			}
		}
	}
	return res
}
