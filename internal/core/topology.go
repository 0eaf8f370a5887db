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
	"tcpburst/internal/tcp"
	"tcpburst/internal/transport"
)

// graph describes a network before it is built: hosts and gateways, the
// links between them, the gateways' static routes, and the flows that load
// it. A node's address is its index. Topologies only declare; build owns
// placement, lanes, RNG streams and shard crossings, so the serial and
// sharded schedules of every topology follow one set of rules.
type graph struct {
	nodes  []gnode
	links  []glink
	routes []groute
	flows  []gflow
}

// gnode is a host or a gateway; build assigns its shard.
type gnode struct {
	gateway bool
	// jitter adds one uniform [0, jitter) draw per host to the delay of
	// every link touching it (heterogeneous-RTT extension).
	jitter sim.Duration
	shard  int
}

// glink is one unidirectional link.
type glink struct {
	name     string
	from, to int
	rateBps  float64
	delay    sim.Duration
	// buffer is the drop-tail FIFO capacity unless discipline is set; then
	// the link queues through the gateway discipline under study.
	buffer     int
	discipline bool
	// stream, when nonzero, gives the discipline its own child of the root
	// RNG, forked whether or not the discipline draws from it.
	stream   int64
	lossProb float64
	// metered attaches the shard's gateway-link telemetry handles.
	metered bool
	// overprov is the topology's proof that the queue can never fill;
	// build adds the client-link case itself.
	overprov bool
}

// groute sends what gateway gw receives for node dst out of link.
type groute struct{ gw, dst, link int }

// gflow is one transport connection from host src to host dst, its
// workload drawing from the root RNG's child stream.
type gflow struct {
	src, dst int
	proto    Protocol
	stream   int64
}

// Fixed RNG stream ids of the build-time draws that are not per flow.
const (
	lossStream   = 1 << 21
	jitterStream = 1 << 22
)

func (g *graph) node(gateway bool) int {
	g.nodes = append(g.nodes, gnode{gateway: gateway})
	return len(g.nodes) - 1
}

func (g *graph) link(l glink) int {
	g.links = append(g.links, l)
	return len(g.links) - 1
}

func (g *graph) route(gw, dst, link int) {
	g.routes = append(g.routes, groute{gw: gw, dst: dst, link: link})
}

// client adds a host wired to gateway gw by an access link and its reverse
// twin, routes gw's traffic for the host down the reverse link, and opens a
// flow from the host to dst. It returns the host.
func (g *graph) client(cfg Config, gw, dst int, proto Protocol, stream int64) int {
	h := g.node(false)
	n := len(g.flows) + 1
	pair := glink{rateBps: cfg.ClientRateBps, delay: cfg.ClientDelay, buffer: cfg.AccessBufferPackets}
	up, down := pair, pair
	up.name, up.from, up.to = fmt.Sprintf("client%d->gw", n), h, gw
	down.name, down.from, down.to = fmt.Sprintf("gw->client%d", n), gw, h
	g.link(up)
	g.route(gw, h, g.link(down))
	g.flows = append(g.flows, gflow{src: h, dst: dst, proto: proto, stream: stream})
	return h
}

// network is a compiled graph: one scheduler, packet pool and telemetry
// registry per shard, and the built links and flows in declaration order.
type network struct {
	scheds []*sim.Scheduler
	tels   []*telem
	group  *shard.Group // nil when serial
	links  []*link.Link
	flows  []*flow
	// simEvents and schedOps total the run's kernel work; run fills them.
	simEvents, schedOps uint64
}

// build compiles g under cfg's shard count, seed, transport, traffic and
// gateway settings. Each rule below exists once for every topology:
//
//   - placement: gateways on shard 0; hosts that terminate flows on shard 1
//     when K ≥ 3, else with the gateways; hosts that originate flows — the
//     bulk of the state and events at large N — in contiguous blocks over
//     the remaining shards;
//   - a link touching an originating host runs on that host's shard, any
//     other link on its source node's shard; a sender runs on its source
//     host's shard and a sink on its destination host's shard;
//   - a delivery to a gateway runs on the shard of the egress link the
//     gateway's route picks for p.Dst, so a crossing is any link with an
//     end on another shard, and the lookahead is the minimum delay over
//     the crossing links;
//   - RNG forks follow declaration order — link streams, then host jitter,
//     then flows — and so do lanes: every link draws one, then every
//     source, so at an equal instant an arrival sorts after any link event
//     and before every default-lane event.
func build(cfg Config, g *graph) (*network, error) {
	k := cfg.Shards
	if k < 1 {
		k = 1
	}
	// source[v] says host v originates a flow; tcpClient[v] that it
	// originates exactly one, over TCP.
	source := make([]bool, len(g.nodes))
	tcpClient := make([]bool, len(g.nodes))
	nsrc := 0
	for _, f := range g.flows {
		if !source[f.src] {
			nsrc++
		}
		tcpClient[f.src] = !source[f.src] && f.proto.IsTCP()
		source[f.src] = true
	}
	lo := min(2, k-1)
	nth := 0
	for v := range g.nodes {
		nd := &g.nodes[v]
		switch {
		case nd.gateway:
			nd.shard = 0
		case !source[v]:
			nd.shard = max(lo-1, 0)
		default:
			nd.shard = lo + nth*(k-lo)/nsrc
			nth++
		}
	}
	shardOf := make([]int, len(g.links))
	for i, l := range g.links {
		shardOf[i] = g.nodes[l.from].shard
		if source[l.to] {
			shardOf[i] = g.nodes[l.to].shard
		}
	}
	// egress[gw][addr] is the shard a delivery to gw for addr runs on;
	// routesOn[gw][s] says whether any of gw's routes leaves from shard s.
	egress := make([][]int, len(g.nodes))
	routesOn := make([][]bool, len(g.nodes))
	for _, r := range g.routes {
		for len(egress[r.gw]) <= r.dst {
			egress[r.gw] = append(egress[r.gw], 0)
		}
		egress[r.gw][r.dst] = shardOf[r.link]
		if routesOn[r.gw] == nil {
			routesOn[r.gw] = make([]bool, k)
		}
		routesOn[r.gw][shardOf[r.link]] = true
	}

	n := &network{scheds: make([]*sim.Scheduler, k), tels: make([]*telem, k)}
	pools := make([]*packet.Pool, k)
	for s := range n.scheds {
		n.scheds[s] = sim.NewScheduler()
		if !cfg.DisablePacketPool {
			pools[s] = packet.NewPool()
		}
		n.tels[s] = newTelem(cfg)
	}

	rng := sim.NewRNG(cfg.Seed)
	queues := make([]queue.Discipline, len(g.links))
	lossRNG := make([]*sim.RNG, len(g.links))
	for i, l := range g.links {
		if !l.discipline {
			queues[i] = queue.NewFIFO(l.buffer)
		} else {
			qrng := rng
			if l.stream != 0 {
				qrng = rng.Fork(l.stream)
			}
			q, err := buildGatewayQueue(cfg, qrng, n.tels[shardOf[i]])
			if err != nil {
				return nil, err
			}
			if drr, ok := q.(*queue.DRR); ok {
				// Longest-queue eviction consumes the displaced packet
				// inside the discipline; reclaim it there.
				drr.OnEvict(pools[shardOf[i]].Put)
			}
			queues[i] = q
		}
		if l.lossProb > 0 {
			lossRNG[i] = rng.Fork(lossStream)
		}
	}
	extra := make([]sim.Duration, len(g.nodes))
	var jitterRNG *sim.RNG
	for v, nd := range g.nodes {
		if nd.jitter > 0 {
			if jitterRNG == nil {
				jitterRNG = rng.Fork(jitterStream)
			}
			extra[v] = sim.Duration(jitterRNG.Uniform(0, float64(nd.jitter)))
		}
	}
	flowRNG := make([]*sim.RNG, len(g.flows))
	for i, f := range g.flows {
		flowRNG[i] = rng.Fork(f.stream)
	}

	crossing := make([]bool, len(g.links))
	lookahead := sim.Duration(-1)
	for i, l := range g.links {
		if g.nodes[l.to].gateway {
			for s, on := range routesOn[l.to] {
				crossing[i] = crossing[i] || on && s != shardOf[i]
			}
		} else {
			crossing[i] = g.nodes[l.to].shard != shardOf[i]
		}
		if d := l.delay + extra[l.from] + extra[l.to]; crossing[i] && (lookahead < 0 || d < lookahead) {
			lookahead = d
		}
	}
	if k > 1 {
		if lookahead <= 0 {
			return nil, fmt.Errorf("build: %d shards need a positive delay on every link between shards", k)
		}
		n.group = shard.NewGroup(n.scheds, lookahead)
	}

	recv := make([]link.Receiver, len(g.nodes))
	hosts := make([]*node.Host, len(g.nodes))
	gws := make([]*node.Gateway, len(g.nodes))
	for v, nd := range g.nodes {
		if nd.gateway {
			gws[v] = node.NewGateway(packet.Addr(v))
			gws[v].SetPool(pools[nd.shard])
			recv[v] = gws[v]
		} else {
			hosts[v] = node.NewHost(packet.Addr(v))
			hosts[v].SetPool(pools[nd.shard])
			recv[v] = hosts[v]
		}
	}

	lanes := sim.NewLanes()
	n.links = make([]*link.Link, len(g.links))
	out := make([]*link.Link, len(g.nodes)) // each host's egress link
	for i, l := range g.links {
		s := shardOf[i]
		// A TCP client's links can never fill when the buffer dwarfs the
		// window: in-network packets of one flow are bounded by a window
		// of originals plus a window of go-back-N retransmission copies,
		// so capacity ≥ 2·MaxWindow guarantees drop-free operation and
		// unlocks the link layer's serialization pipelining. UDP clients
		// are open-loop — nothing bounds their backlog.
		client := (tcpClient[l.from] || tcpClient[l.to]) && !l.discipline && l.buffer >= 2*cfg.MaxWindow
		lc := link.Config{
			Name:     l.name,
			RateBps:  l.rateBps,
			Delay:    l.delay + extra[l.from] + extra[l.to],
			Queue:    queues[i],
			Dst:      recv[l.to],
			Pool:     pools[s],
			Lane:     lanes.Next(),
			LossProb: l.lossProb,
			LossRNG:  lossRNG[i],

			DisableBatching: cfg.DisableBatching,
			Overprovisioned: l.overprov || client,
		}
		if l.metered {
			lc.Metrics = n.tels[s].link
		}
		if crossing[i] {
			lc.XDeliver = n.crossHook(s, recv[l.to], g.nodes[l.to].shard, egress[l.to])
		}
		lk, err := link.New(n.scheds[s], lc)
		if err != nil {
			return nil, err
		}
		n.links[i] = lk
		if hosts[l.from] != nil && out[l.from] == nil {
			out[l.from] = lk
		}
	}
	for _, r := range g.routes {
		if err := gws[r.gw].AddRoute(packet.Addr(r.dst), n.links[r.link]); err != nil {
			return nil, err
		}
	}

	n.flows = make([]*flow, len(g.flows))
	srcs := make([]transport.Source, len(g.flows))
	for i, gf := range g.flows {
		id := packet.FlowID(i + 1)
		ss, ds := g.nodes[gf.src].shard, g.nodes[gf.dst].shard
		f := &flow{client: i + 1, proto: gf.proto, shard: ss}
		if gf.proto.IsTCP() {
			tc := tcp.Config{
				Flow:              id,
				Src:               packet.Addr(gf.src),
				Dst:               packet.Addr(gf.dst),
				Variant:           gf.proto.TCPVariant(),
				PacketSize:        cfg.PacketSize,
				AckSize:           cfg.AckSize,
				MaxWindow:         cfg.MaxWindow,
				MinRTO:            cfg.MinRTO,
				DelayedAcks:       gf.proto == RenoDelayAck,
				DelayedAckTimeout: cfg.DelayedAckTimeout,
				Vegas:             cfg.Vegas,
				Out:               out[gf.src],
				Sched:             n.scheds[ss],
				Pool:              pools[ss],
				Metrics:           n.tels[ss].tcp,
				DisableBatching:   cfg.DisableBatching,
			}
			sender, err := tcp.NewSender(tc)
			if err != nil {
				return nil, err
			}
			tc.Out, tc.Sched, tc.Pool, tc.Metrics = out[gf.dst], n.scheds[ds], pools[ds], n.tels[ds].tcp
			sink, err := tcp.NewSink(tc)
			if err != nil {
				return nil, err
			}
			hosts[gf.src].Bind(id, sender)
			hosts[gf.dst].Bind(id, sink)
			f.tcpSend, f.tcpSink, srcs[i] = sender, sink, sender
		} else {
			sender, err := transport.NewUDPSender(transport.UDPConfig{
				Flow:       id,
				Src:        packet.Addr(gf.src),
				Dst:        packet.Addr(gf.dst),
				PacketSize: cfg.PacketSize,
				Out:        out[gf.src],
				Now:        n.scheds[ss].Now,
				Pool:       pools[ss],
			})
			if err != nil {
				return nil, err
			}
			sink := transport.NewUDPSinkWithClock(n.scheds[ds].Now)
			sink.SetPool(pools[ds])
			hosts[gf.src].Bind(id, sender)
			hosts[gf.dst].Bind(id, sink)
			f.udpSend, f.udpSink, srcs[i] = sender, sink, sender
		}
		n.flows[i] = f
	}
	for i, f := range n.flows {
		gen, err := buildGenerator(cfg, n.scheds[f.shard], flowRNG[i], lanes.Next(), srcs[i], n.tels[f.shard].appGenerated)
		if err != nil {
			return nil, err
		}
		f.gen = gen
	}
	return n, nil
}

// crossHook returns the XDeliver hook of a link on shard src into node dst:
// the barrier lands the delivery on dst's shard — for a gateway, the shard
// of the egress link its route picks for the packet (the routing table is
// immutable after build, so Receive may run there).
func (n *network) crossHook(src int, dst link.Receiver, dstShard int, egress []int) func(sim.Time, uint64, *packet.Packet) {
	deliver := func(arg any) { dst.Receive(arg.(*packet.Packet)) }
	if _, ok := dst.(*node.Gateway); ok {
		return func(at sim.Time, ord uint64, p *packet.Packet) {
			n.group.Cross(src, egress[p.Dst], at, ord, deliver, p)
		}
	}
	return func(at sim.Time, ord uint64, p *packet.Packet) {
		n.group.Cross(src, dstShard, at, ord, deliver, p)
	}
}

// run drives the network to horizon: it starts every source, polls ctx
// from shard 0 (the coordinator's goroutine), runs the shards, stops the
// sources, and totals the kernel work. Pipelined links credit elided
// serialize-done events at delivery; completions in flight at the horizon
// settle here, so simEvents counts exactly what the per-event schedule
// fired.
func (n *network) run(ctx context.Context, horizon sim.Time) error {
	for _, f := range n.flows {
		f.gen.Start()
	}
	watchContext(ctx, n.scheds[0])
	var err error
	if n.group != nil {
		err = n.group.Run(horizon)
	} else {
		err = n.scheds[0].Run(horizon)
	}
	if err != nil {
		if errors.Is(err, sim.ErrStopped) && ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("run simulation: %w", err)
	}
	for _, f := range n.flows {
		f.gen.Stop()
	}
	for _, s := range n.scheds {
		n.simEvents += s.Fired()
		n.schedOps += s.ScheduledOps()
	}
	for _, l := range n.links {
		n.simEvents += l.FinishVirtual(horizon)
	}
	return nil
}
