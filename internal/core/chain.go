package core

import (
	"context"
	"errors"
	"fmt"

	"tcpburst/internal/link"
	"tcpburst/internal/node"
	"tcpburst/internal/packet"
	"tcpburst/internal/queue"
	"tcpburst/internal/shard"
	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
	"tcpburst/internal/tcp"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/traffic"
	"tcpburst/internal/transport"
)

// The parking-lot topology generalizes the paper's single gateway to a
// two-hop distributed system — the multi-bottleneck shape of computational
// grids the paper's introduction motivates:
//
//	long clients ──► gw1 ══hop1══► gw2 ══hop2══► server
//	hop1 clients ──► gw1 ══hop1══► exit1 (host at gw2)
//	hop2 clients ────────────────► gw2 ══hop2══► server
//
// Long flows cross both bottlenecks and compete with single-hop cross
// traffic on each; the classic outcome is that multi-hop flows receive
// less than their single-hop competitors.

// ChainConfig describes one parking-lot experiment. Zero-valued tunables
// inherit the paper's Table-1 defaults.
type ChainConfig struct {
	// LongClients cross both hops; Hop1Clients and Hop2Clients cross
	// only their own bottleneck.
	LongClients, Hop1Clients, Hop2Clients int
	// Protocol is the transport for every client.
	Protocol Protocol
	// Gateway is the queueing discipline at both bottlenecks.
	Gateway GatewayQueue
	// Seed and Duration as in Config.
	Seed     int64
	Duration sim.Duration
	// Base supplies link rates, delays, buffer sizes, packet sizes and
	// traffic parameters (Clients/Protocol/Gateway fields are ignored).
	Base Config
	// Shards runs the topology across this many schedulers (0 or 1:
	// serial; 2: split at the hop-1 wire — gw1 and its attached clients
	// against everything downstream). The parking lot has exactly one
	// inter-gateway cut, so 2 is the maximum. Inherits Base.Shards when
	// zero. Sharded runs are bit-identical to serial ones (the chain
	// golden digests are replayed at 2 shards), so like Config.Shards the
	// field is excluded from JSON and cache keys.
	Shards int `json:"-"`
}

// withDefaults fills the embedded base config.
func (c ChainConfig) withDefaults() ChainConfig {
	c.Base.Clients = 1 // placate base validation; not used directly
	if c.Protocol == 0 {
		c.Protocol = Reno
	}
	c.Base.Protocol = c.Protocol
	c.Base.Gateway = c.Gateway
	c.Base = c.Base.WithDefaults()
	c.Gateway = c.Base.Gateway
	if c.Seed == 0 {
		c.Seed = c.Base.Seed
	}
	if c.Duration == 0 {
		c.Duration = c.Base.Duration
	}
	if c.Shards == 0 {
		c.Shards = c.Base.Shards
	}
	// The chain validates its own shard count against its own topology;
	// the dumbbell rules in Base.Validate do not apply.
	c.Base.Shards = 0
	return c
}

// validate reports the first configuration error.
func (c ChainConfig) validate() error {
	switch {
	case c.LongClients < 1:
		return fmt.Errorf("chain: long clients %d < 1", c.LongClients)
	case c.Hop1Clients < 0 || c.Hop2Clients < 0:
		return fmt.Errorf("chain: negative cross-traffic counts")
	case c.Duration <= 0:
		return fmt.Errorf("chain: duration %v <= 0", c.Duration)
	case c.Shards < 0 || c.Shards > 2:
		return fmt.Errorf("chain: shards %d unsupported; the parking lot has one inter-gateway cut, so use at most 2", c.Shards)
	case c.Shards == 2 && c.Base.BottleneckDelay <= 0:
		return fmt.Errorf("chain: sharding requires a positive bottleneck delay (it bounds the lookahead window)")
	}
	return c.Base.Validate()
}

// ChainGroupResult aggregates one client group's outcome.
type ChainGroupResult struct {
	Clients   int
	Generated uint64
	Delivered uint64
	Timeouts  uint64
	// PerFlowJain is Jain's index within the group.
	PerFlowJain float64
}

// ChainResult is the outcome of a parking-lot experiment.
type ChainResult struct {
	// SchemaVersion stamps the serialized encoding (SummarySchemaVersion);
	// the run cache rejects entries stored under a different version.
	SchemaVersion int `json:"schemaVersion,omitempty"`

	Config ChainConfig

	Long, Hop1, Hop2 ChainGroupResult

	// COVHop1 and COVHop2 are the per-RTT-window arrival c.o.v. at each
	// bottleneck.
	COVHop1, COVHop2 float64
	// DropsHop1 and DropsHop2 count bottleneck-queue drops per hop.
	DropsHop1, DropsHop2 uint64
	// LongShareHop2 is the long flows' fraction of hop-2 deliveries —
	// the multi-bottleneck fairness headline.
	LongShareHop2 float64
	// SimEvents counts the kernel events executed — run telemetry.
	SimEvents uint64
}

// chainFlow is one client's bundle in the chain experiment.
type chainFlow struct {
	gen  traffic.Generator
	send *tcp.Sender
	sink *tcp.Sink
	udpS *transport.UDPSender
	udpK *transport.UDPSink
}

func (f *chainFlow) delivered() uint64 {
	if f.sink != nil {
		return f.sink.Delivered()
	}
	return f.udpK.Delivered()
}

func (f *chainFlow) timeouts() uint64 {
	if f.send != nil {
		return f.send.Counters().Timeouts
	}
	return 0
}

// RunParkingLot executes the two-hop experiment.
func RunParkingLot(cfg ChainConfig) (*ChainResult, error) {
	return RunParkingLotContext(context.Background(), cfg)
}

// RunParkingLotContext is RunParkingLot with cancellation, polled from
// inside the event loop exactly as in RunContext.
func RunParkingLotContext(ctx context.Context, cfg ChainConfig) (*ChainResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	base := cfg.Base

	// Shard plan (DESIGN.md §11): the parking lot's only inter-gateway
	// wire is hop 1 (gw1⇄gw2), so the two-shard cut places gw1 and every
	// client attached to it upstream (shard 0), and gw2, the server,
	// exit1 and the hop-2 clients downstream (shard 1). The long and
	// hop-1 clients' sinks live on the downstream hosts, so they use the
	// downstream kernel and pool. Serial runs use one scheduler (and one
	// pool) for both roles. The two crossing links draw lanes in both
	// modes — lane allocation order is part of the canonical event order
	// and must not depend on the shard count.
	const (
		upShard   = 0
		downShard = 1
	)
	k := cfg.Shards
	if k < 1 {
		k = 1
	}
	scheds := make([]*sim.Scheduler, k)
	for i := range scheds {
		scheds[i] = sim.NewScheduler()
	}
	up, down := scheds[0], scheds[k-1]
	var group *shard.Group
	if k == 2 {
		group = shard.NewGroup(scheds, base.BottleneckDelay)
	}
	lanes := sim.NewLanes()
	rng := sim.NewRNG(cfg.Seed)

	var poolUp, poolDown *packet.Pool
	if !base.DisablePacketPool {
		poolUp = packet.NewPool()
		poolDown = poolUp
		if k == 2 {
			poolDown = packet.NewPool()
		}
	}

	const (
		serverAddr2 packet.Addr = 1 // final server behind hop 2
		exit1Addr   packet.Addr = 2 // hop-1 cross traffic's destination at gw2
	)
	server := node.NewHost(serverAddr2)
	server.SetPool(poolDown)
	exit1 := node.NewHost(exit1Addr)
	exit1.SetPool(poolDown)
	gw1 := node.NewGateway(10)
	gw1.SetPool(poolUp)
	gw2 := node.NewGateway(11)
	gw2.SetPool(poolDown)

	// xdel builds a cross-shard delivery hook, or nil when serial: the
	// crossing is buffered by the barrier and injected into the
	// destination kernel with the link lane's ordinal, exactly where the
	// serial schedule would have placed it.
	xdel := func(src, dst int, deliver func(any)) func(sim.Time, uint64, *packet.Packet) {
		if group == nil {
			return nil
		}
		return func(at sim.Time, ord uint64, p *packet.Packet) {
			group.Cross(src, dst, at, ord, deliver, p)
		}
	}
	gw1Deliver := func(arg any) { gw1.Receive(arg.(*packet.Packet)) }
	gw2Deliver := func(arg any) { gw2.Receive(arg.(*packet.Packet)) }

	mkBottleneckQ := func(stream int64, evictTo *packet.Pool) (queue.Discipline, error) {
		chainCfg := base
		q, err := buildGatewayQueue(chainCfg, rng.Fork(stream), &telem{})
		if drr, ok := q.(*queue.DRR); ok {
			drr.OnEvict(evictTo.Put)
		}
		return q, err
	}
	q1, err := mkBottleneckQ(1<<23, poolUp)
	if err != nil {
		return nil, err
	}
	q2, err := mkBottleneckQ(1<<24, poolDown)
	if err != nil {
		return nil, err
	}

	hop1, err := link.New(up, link.Config{
		Name: "gw1->gw2", RateBps: base.BottleneckRateBps,
		Delay: base.BottleneckDelay, Queue: q1, Dst: gw2, Pool: poolUp,
		Lane:     lanes.Next(),
		XDeliver: xdel(upShard, downShard, gw2Deliver),

		DisableBatching: base.DisableBatching,
	})
	if err != nil {
		return nil, err
	}
	hop2, err := link.New(down, link.Config{
		Name: "gw2->server", RateBps: base.BottleneckRateBps,
		Delay: base.BottleneckDelay, Queue: q2, Dst: server, Pool: poolDown,

		DisableBatching: base.DisableBatching,
	})
	if err != nil {
		return nil, err
	}
	// Reverse path: server -> gw2 -> gw1, amply provisioned.
	rev2, err := link.New(down, link.Config{
		Name: "server->gw2", RateBps: base.BottleneckRateBps,
		Delay: base.BottleneckDelay, Queue: queue.NewFIFO(base.AccessBufferPackets), Dst: gw2, Pool: poolDown,

		DisableBatching: base.DisableBatching,
	})
	if err != nil {
		return nil, err
	}
	rev1, err := link.New(down, link.Config{
		Name: "gw2->gw1", RateBps: base.BottleneckRateBps,
		Delay: base.BottleneckDelay, Queue: queue.NewFIFO(base.AccessBufferPackets), Dst: gw1, Pool: poolDown,
		Lane:     lanes.Next(),
		XDeliver: xdel(downShard, upShard, gw1Deliver),

		DisableBatching: base.DisableBatching,
	})
	if err != nil {
		return nil, err
	}
	revExit, err := link.New(down, link.Config{
		Name: "exit1->gw2", RateBps: base.BottleneckRateBps,
		Delay: base.BottleneckDelay, Queue: queue.NewFIFO(base.AccessBufferPackets), Dst: gw2, Pool: poolDown,

		DisableBatching: base.DisableBatching,
	})
	if err != nil {
		return nil, err
	}
	// Forward local delivery from gw2 to exit1.
	toExit1, err := link.New(down, link.Config{
		Name: "gw2->exit1", RateBps: base.ClientRateBps,
		Delay: base.ClientDelay, Queue: queue.NewFIFO(base.AccessBufferPackets), Dst: exit1, Pool: poolDown,

		DisableBatching: base.DisableBatching,
	})
	if err != nil {
		return nil, err
	}

	// Static routes: data forward, ACKs back.
	if err := gw1.AddRoute(serverAddr2, hop1); err != nil {
		return nil, err
	}
	if err := gw1.AddRoute(exit1Addr, hop1); err != nil {
		return nil, err
	}
	if err := gw2.AddRoute(serverAddr2, hop2); err != nil {
		return nil, err
	}
	if err := gw2.AddRoute(exit1Addr, toExit1); err != nil {
		return nil, err
	}

	// Measurement taps at both bottlenecks.
	rttWindow := 2 * (2*base.ClientDelay + 2*base.BottleneckDelay)
	wc1, err := stats.NewWindowCounter(rttWindow)
	if err != nil {
		return nil, err
	}
	wc2, err := stats.NewWindowCounter(rttWindow)
	if err != nil {
		return nil, err
	}
	wc1.Open(sim.TimeZero)
	wc2.Open(sim.TimeZero)
	hop1.OnArrival(func(now sim.Time, p *packet.Packet) {
		if p.IsData() {
			wc1.Observe(now)
		}
	})
	hop2.OnArrival(func(now sim.Time, p *packet.Packet) {
		if p.IsData() {
			wc2.Observe(now)
		}
	})

	// Client construction. Addresses are dense so gateway routing tables
	// are small indexed slices: long clients directly after the fixed
	// nodes, then hop-1, then hop-2. Flow ids are globally unique and
	// equally dense.
	longAddrOff := exit1Addr + 1
	hop1AddrOff := longAddrOff + packet.Addr(cfg.LongClients)
	hop2AddrOff := hop1AddrOff + packet.Addr(cfg.Hop1Clients)
	nextFlow := packet.FlowID(1)
	// buildGroup wires one client group. The clients (hosts, access and
	// reverse links, senders, generators) live on clientSched's shard; the
	// sinks live with their destination host on down's shard, which is
	// also where the group's serverOut link runs.
	buildGroup := func(
		n int,
		addrOff packet.Addr,
		attach *node.Gateway,
		attachRev func(addr packet.Addr, l *link.Link) error,
		dstAddr packet.Addr,
		dstHost *node.Host,
		serverOut *link.Link,
		streamOff int64,
		clientSched *sim.Scheduler,
		clientPool *packet.Pool,
	) ([]*chainFlow, error) {
		flows := make([]*chainFlow, 0, n)
		for i := 0; i < n; i++ {
			addr := addrOff + packet.Addr(i)
			flowID := nextFlow
			nextFlow++
			host := node.NewHost(addr)
			host.SetPool(clientPool)
			access, err := link.New(clientSched, link.Config{
				Name: fmt.Sprintf("c%d->gw", int(flowID)), RateBps: base.ClientRateBps,
				Delay: base.ClientDelay, Queue: queue.NewFIFO(base.AccessBufferPackets), Dst: attach, Pool: clientPool,

				DisableBatching: base.DisableBatching,
			})
			if err != nil {
				return nil, err
			}
			reverse, err := link.New(clientSched, link.Config{
				Name: fmt.Sprintf("gw->c%d", int(flowID)), RateBps: base.ClientRateBps,
				Delay: base.ClientDelay, Queue: queue.NewFIFO(base.AccessBufferPackets), Dst: host, Pool: clientPool,

				DisableBatching: base.DisableBatching,
			})
			if err != nil {
				return nil, err
			}
			if err := attachRev(addr, reverse); err != nil {
				return nil, err
			}

			f := &chainFlow{}
			var src transport.Source
			if cfg.Protocol.IsTCP() {
				tcpCfg := tcp.Config{
					Flow: flowID, Src: addr, Dst: dstAddr,
					Variant:    cfg.Protocol.TCPVariant(),
					PacketSize: base.PacketSize, AckSize: base.AckSize,
					MaxWindow: base.MaxWindow, MinRTO: base.MinRTO,
					DelayedAcks:       cfg.Protocol == RenoDelayAck,
					DelayedAckTimeout: base.DelayedAckTimeout,
					Vegas:             base.Vegas, Sched: clientSched, Pool: clientPool,
					DisableBatching: base.DisableBatching,
				}
				sendCfg := tcpCfg
				sendCfg.Out = access
				sender, err := tcp.NewSender(sendCfg)
				if err != nil {
					return nil, err
				}
				sinkCfg := tcpCfg
				sinkCfg.Out = serverOut
				sinkCfg.Sched = down
				sinkCfg.Pool = poolDown
				sink, err := tcp.NewSink(sinkCfg)
				if err != nil {
					return nil, err
				}
				host.Bind(flowID, sender)
				dstHost.Bind(flowID, sink)
				f.send, f.sink = sender, sink
				src = sender
			} else {
				sender, err := transport.NewUDPSender(transport.UDPConfig{
					Flow: flowID, Src: addr, Dst: dstAddr,
					PacketSize: base.PacketSize, Out: access, Pool: clientPool,
				})
				if err != nil {
					return nil, err
				}
				sink := transport.NewUDPSink()
				sink.SetPool(poolDown)
				host.Bind(flowID, sender)
				dstHost.Bind(flowID, sink)
				f.udpS, f.udpK = sender, sink
				src = sender
			}
			gen, err := buildGenerator(base, clientSched, rng.Fork(streamOff+int64(i)), src, telemetry.Counter{})
			if err != nil {
				return nil, err
			}
			f.gen = gen
			flows = append(flows, f)
		}
		return flows, nil
	}

	longFlows, err := buildGroup(cfg.LongClients, longAddrOff, gw1, gw1.AddRoute, serverAddr2, server, rev2, 1000, up, poolUp)
	if err != nil {
		return nil, err
	}
	hop1Flows, err := buildGroup(cfg.Hop1Clients, hop1AddrOff, gw1, gw1.AddRoute, exit1Addr, exit1, revExit, 2000, up, poolUp)
	if err != nil {
		return nil, err
	}
	hop2Flows, err := buildGroup(cfg.Hop2Clients, hop2AddrOff, gw2, gw2.AddRoute, serverAddr2, server, rev2, 3000, down, poolDown)
	if err != nil {
		return nil, err
	}

	// ACKs returning to long and hop-1 clients arrive at gw2 and must
	// continue toward gw1.
	for i := 0; i < cfg.LongClients; i++ {
		if err := gw2.AddRoute(longAddrOff+packet.Addr(i), rev1); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Hop1Clients; i++ {
		if err := gw2.AddRoute(hop1AddrOff+packet.Addr(i), rev1); err != nil {
			return nil, err
		}
	}

	for _, g := range [][]*chainFlow{longFlows, hop1Flows, hop2Flows} {
		for _, f := range g {
			f.gen.Start()
		}
	}
	watchContext(ctx, scheds[0])

	horizon := sim.TimeZero.Add(cfg.Duration)
	var runErr error
	if group != nil {
		runErr = group.Run(horizon)
	} else {
		runErr = scheds[0].Run(horizon)
	}
	if runErr != nil {
		if errors.Is(runErr, sim.ErrStopped) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("run parking lot: %w", runErr)
	}

	res := &ChainResult{SchemaVersion: SummarySchemaVersion, Config: cfg}
	for _, s := range scheds {
		res.SimEvents += s.Fired()
	}
	res.Long = summarizeChainGroup(longFlows)
	res.Hop1 = summarizeChainGroup(hop1Flows)
	res.Hop2 = summarizeChainGroup(hop2Flows)
	c1 := stats.Summarize(wc1.Close(horizon))
	c2 := stats.Summarize(wc2.Close(horizon))
	res.COVHop1, res.COVHop2 = c1.COV(), c2.COV()
	res.DropsHop1 = hop1.Stats().Drops
	res.DropsHop2 = hop2.Stats().Drops
	if total := res.Long.Delivered + res.Hop2.Delivered; total > 0 {
		res.LongShareHop2 = float64(res.Long.Delivered) / float64(total)
	}
	return res, nil
}

func summarizeChainGroup(flows []*chainFlow) ChainGroupResult {
	g := ChainGroupResult{Clients: len(flows)}
	delivered := make([]float64, 0, len(flows))
	for _, f := range flows {
		g.Generated += f.gen.Generated()
		g.Delivered += f.delivered()
		g.Timeouts += f.timeouts()
		delivered = append(delivered, float64(f.delivered()))
	}
	g.PerFlowJain = stats.JainIndex(delivered)
	return g
}
