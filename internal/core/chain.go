package core

import (
	"context"
	"fmt"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
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
	// traffic parameters, and is validated like a dumbbell Config of
	// LongClients+Hop1Clients+Hop2Clients clients (its own Clients,
	// Protocol and Gateway fields are ignored).
	Base Config
	// Shards runs the topology across this many schedulers (0 or 1:
	// serial), placed by the same rule as Config.Shards. Inherits
	// Base.Shards when zero. Sharded runs are bit-identical to serial ones
	// (the chain golden digest is replayed at 2 and 4 shards), so like
	// Config.Shards the field is excluded from JSON and cache keys.
	Shards int `json:"-"`
}

// withDefaults fills the embedded base config.
func (c ChainConfig) withDefaults() ChainConfig {
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
	return c
}

// base is the Config the chain is built and validated under: Base with the
// chain's own client total, seed, duration and shard count.
func (c ChainConfig) base() Config {
	b := c.Base
	b.Clients = c.LongClients + c.Hop1Clients + c.Hop2Clients
	b.Seed, b.Duration, b.Shards = c.Seed, c.Duration, c.Shards
	return b
}

// validate reports the first configuration error.
func (c ChainConfig) validate() error {
	switch {
	case c.LongClients < 1:
		return fmt.Errorf("chain: long clients %d < 1", c.LongClients)
	case c.Hop1Clients < 0 || c.Hop2Clients < 0:
		return fmt.Errorf("chain: negative cross-traffic counts")
	}
	return c.base().Validate()
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

// RunParkingLot executes the two-hop experiment.
func RunParkingLot(cfg ChainConfig) (*ChainResult, error) {
	return RunParkingLotContext(context.Background(), cfg)
}

// RunParkingLotContext is RunParkingLot with cancellation, polled from
// inside the event loop exactly as in RunContext.
func RunParkingLotContext(ctx context.Context, cfg ChainConfig) (*ChainResult, error) {
	res, _, err := runParkingLot(ctx, cfg)
	return res, err
}

// runParkingLot runs the experiment and also returns the built network,
// through which tests inspect kernel and link state.
func runParkingLot(ctx context.Context, cfg ChainConfig) (*ChainResult, *network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	base := cfg.base()

	// Addresses: gw1 0, server 1, exit1 2 (hop-1 cross traffic's
	// destination at gw2), gw2 3, then the long, hop-1 and hop-2 clients.
	// Each host sends on its first link: the server and exit1 return ACKs
	// over server->gw2 and exit1->gw2.
	g := &graph{}
	gw1, server, exit1, gw2 := g.node(true), g.node(false), g.node(false), g.node(true)
	wire := func(name string, from, to int) glink {
		return glink{name: name, from: from, to: to, rateBps: base.BottleneckRateBps,
			delay: base.BottleneckDelay, buffer: base.AccessBufferPackets}
	}
	hop1, hop2 := wire("gw1->gw2", gw1, gw2), wire("gw2->server", gw2, server)
	hop1.discipline, hop1.stream = true, 1<<23
	hop2.discipline, hop2.stream = true, 1<<24
	hop1L, hop2L := g.link(hop1), g.link(hop2)
	// Reverse path: server -> gw2 -> gw1, amply provisioned.
	g.link(wire("server->gw2", server, gw2))
	rev1 := g.link(wire("gw2->gw1", gw2, gw1))
	g.link(wire("exit1->gw2", exit1, gw2))
	toExit1 := wire("gw2->exit1", gw2, exit1)
	toExit1.rateBps, toExit1.delay = base.ClientRateBps, base.ClientDelay
	g.route(gw1, server, hop1L)
	g.route(gw1, exit1, hop1L)
	g.route(gw2, server, hop2L)
	g.route(gw2, exit1, g.link(toExit1))
	// ACKs returning to long and hop-1 clients arrive at gw2 and continue
	// toward gw1.
	for i := 0; i < cfg.LongClients; i++ {
		g.route(gw2, g.client(base, gw1, server, cfg.Protocol, 1000+int64(i)), rev1)
	}
	for i := 0; i < cfg.Hop1Clients; i++ {
		g.route(gw2, g.client(base, gw1, exit1, cfg.Protocol, 2000+int64(i)), rev1)
	}
	for i := 0; i < cfg.Hop2Clients; i++ {
		g.client(base, gw2, server, cfg.Protocol, 3000+int64(i))
	}
	net, err := build(base, g)
	if err != nil {
		return nil, nil, err
	}

	// Measurement taps at both bottlenecks.
	rttWindow := 2 * (2*base.ClientDelay + 2*base.BottleneckDelay)
	wc1, err := stats.NewWindowCounter(rttWindow)
	if err != nil {
		return nil, nil, err
	}
	wc2, err := stats.NewWindowCounter(rttWindow)
	if err != nil {
		return nil, nil, err
	}
	wc1.Open(sim.TimeZero)
	wc2.Open(sim.TimeZero)
	net.links[hop1L].OnArrival(func(now sim.Time, p *packet.Packet) {
		if p.IsData() {
			wc1.Observe(now)
		}
	})
	net.links[hop2L].OnArrival(func(now sim.Time, p *packet.Packet) {
		if p.IsData() {
			wc2.Observe(now)
		}
	})

	horizon := sim.TimeZero.Add(cfg.Duration)
	if err := net.run(ctx, horizon); err != nil {
		return nil, nil, err
	}

	res := &ChainResult{SchemaVersion: SummarySchemaVersion, Config: cfg, SimEvents: net.simEvents}
	long, cross := cfg.LongClients, cfg.LongClients+cfg.Hop1Clients
	res.Long = summarizeChainGroup(net.flows[:long])
	res.Hop1 = summarizeChainGroup(net.flows[long:cross])
	res.Hop2 = summarizeChainGroup(net.flows[cross:])
	c1 := stats.Summarize(wc1.Close(horizon))
	c2 := stats.Summarize(wc2.Close(horizon))
	res.COVHop1, res.COVHop2 = c1.COV(), c2.COV()
	res.DropsHop1 = net.links[hop1L].Stats().Drops
	res.DropsHop2 = net.links[hop2L].Stats().Drops
	if total := res.Long.Delivered + res.Hop2.Delivered; total > 0 {
		res.LongShareHop2 = float64(res.Long.Delivered) / float64(total)
	}
	return res, net, nil
}

func summarizeChainGroup(flows []*flow) ChainGroupResult {
	g := ChainGroupResult{Clients: len(flows)}
	delivered := make([]float64, 0, len(flows))
	for _, f := range flows {
		fr := f.result()
		g.Generated += fr.Generated
		g.Delivered += fr.Delivered
		g.Timeouts += fr.Counters.Timeouts
		delivered = append(delivered, float64(fr.Delivered))
	}
	g.PerFlowJain = stats.JainIndex(delivered)
	return g
}
