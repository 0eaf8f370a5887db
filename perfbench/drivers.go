package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/link"
	"tcpburst/internal/packet"
	"tcpburst/internal/queue"
	"tcpburst/internal/runcache"
	"tcpburst/internal/sim"
	"tcpburst/internal/tcp"
	"tcpburst/internal/traffic"
)

// shape carries the properties of a workload its layer drivers reproduce:
// how many flows (and so pending events) it holds, their arrival rate, the
// transports it runs and how full its bottleneck queue sits.
type shape struct {
	// cfg is a representative defaulted configuration: rates, sizes,
	// buffers and windows.
	cfg core.Config
	// clients is the largest client count any of the workload's runs has.
	clients int
	// protocols lists the TCP variants the workload runs.
	protocols []core.Protocol
	// queueMean is the mean sampled bottleneck occupancy over its runs.
	queueMean float64
}

func shapeOf(cfgs []core.Config, results []*core.Result) shape {
	sh := shape{cfg: cfgs[0]}
	seen := map[core.Protocol]bool{}
	for _, c := range cfgs {
		sh.clients = max(sh.clients, c.Clients)
		if c.Protocol.IsTCP() && !seen[c.Protocol] {
			seen[c.Protocol] = true
			sh.protocols = append(sh.protocols, c.Protocol)
		}
	}
	for _, r := range results {
		sh.queueMean += r.Queue.Mean / float64(len(results))
	}
	return sh
}

// driver is one layer's timing loop. It returns the metric value and an
// error when its own output check fails, so that no timing comes from
// work that was skipped.
type driver struct {
	name string
	unit string
	run  func(sh shape, seed int64) (float64, error)
}

var drivers = []driver{
	{"sim.sched_ns_per_op", "ns", schedDriver},
	{"sim.rng_seed_ns", "ns", rngSeedDriver},
	{"sim.rng_exp_ns", "ns", rngExpDriver},
	{"traffic.emit_ns", "ns", emitDriver},
	{"tcp.roundtrip_ns", "ns", roundTripDriver},
	{"queue.fifo_enqdeq_ns", "ns", func(sh shape, seed int64) (float64, error) { return queueDriver(sh, seed, "fifo") }},
	{"queue.red_enqdeq_ns", "ns", func(sh shape, seed int64) (float64, error) { return queueDriver(sh, seed, "red") }},
	{"link.send_ns", "ns", linkDriver},
	{"packet.pool_getput_ns", "ns", poolDriver},
}

// perOp is elapsed time per operation in nanoseconds.
func perOp(d time.Duration, ops int) float64 {
	return float64(d.Nanoseconds()) / float64(ops)
}

// schedDriver holds the workload's pending-event population in a
// scheduler: each fired event files one replacement with an exponential
// delay of the workload's mean arrival interval, as its traffic sources
// do. It reports ns per scheduled-and-fired event.
func schedDriver(sh shape, seed int64) (float64, error) {
	const ops = 1_000_000
	pending := min(sh.clients, ops)
	rng := sim.NewRNG(seed)
	delays := make([]sim.Duration, 1<<16)
	for i := range delays {
		delays[i] = rng.ExpDuration(sh.cfg.MeanInterval)
	}
	s := sim.NewScheduler()
	fired, filed := 0, 0
	var fn func()
	fn = func() {
		fired++
		if filed < ops {
			s.After(delays[filed&(len(delays)-1)], fn)
			filed++
		}
	}
	t0 := time.Now()
	for filed < pending {
		s.After(delays[filed&(len(delays)-1)], fn)
		filed++
	}
	if err := s.RunAll(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if fired != ops || s.Fired() != ops {
		return 0, fmt.Errorf("scheduler fired %d (counted %d), filed %d", s.Fired(), fired, ops)
	}
	return perOp(d, ops), nil
}

// rngSeedDriver derives per-client streams the way the experiment build
// does: one root generator, one Fork per stream. ns per stream.
func rngSeedDriver(sh shape, seed int64) (float64, error) {
	streams := min(sh.clients, 5_000)
	t0 := time.Now()
	root := sim.NewRNG(seed)
	var sum float64
	for i := 0; i < streams; i++ {
		sum += root.Fork(int64(i)).Float64()
	}
	d := time.Since(t0)
	if mean := sum / float64(streams); math.Abs(mean-0.5) > 0.15 {
		return 0, fmt.Errorf("mean first draw %.3f over %d streams, want about 0.5", mean, streams)
	}
	return perOp(d, streams), nil
}

// rngExpDriver draws inter-arrival gaps at the workload's mean interval.
// ns per draw.
func rngExpDriver(sh shape, seed int64) (float64, error) {
	const draws = 2_000_000
	g := sim.NewRNG(seed)
	mean := sh.cfg.MeanInterval
	var sum float64
	t0 := time.Now()
	for i := 0; i < draws; i++ {
		sum += float64(g.ExpDuration(mean))
	}
	d := time.Since(t0)
	if got := sum / draws / float64(mean); math.Abs(got-1) > 0.01 {
		return 0, fmt.Errorf("mean draw is %.4f of the configured mean", got)
	}
	return perOp(d, draws), nil
}

// counter is a transport.Source that only counts submissions.
type counter struct{ n uint64 }

func (c *counter) Submit() { c.n++ }

// emitDriver runs the workload's N Poisson sources on a standalone
// scheduler for about half a million packets. ns per packet.
func emitDriver(sh shape, seed int64) (float64, error) {
	const target = 500_000
	s := sim.NewScheduler()
	root := sim.NewRNG(seed)
	dst := &counter{}
	srcs := make([]*traffic.Poisson, sh.clients)
	for i := range srcs {
		g, err := traffic.NewPoisson(traffic.PoissonConfig{
			MeanInterval: sh.cfg.MeanInterval, Dst: dst, Sched: s, RNG: root.Fork(int64(i)),
		})
		if err != nil {
			return 0, err
		}
		srcs[i] = g
		g.Start()
	}
	horizon := sim.TimeZero.Add(sim.Duration(float64(sh.cfg.MeanInterval) * target / float64(sh.clients)))
	t0 := time.Now()
	if err := s.Run(horizon); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	var generated uint64
	for _, g := range srcs {
		generated += g.Generated()
	}
	if generated == 0 || generated != dst.n || generated != s.Fired() {
		return 0, fmt.Errorf("generated %d, submitted %d, fired %d", generated, dst.n, s.Fired())
	}
	return perOp(d, int(generated)), nil
}

// loopback is a zero-delay wire delivering through a prebound scheduler
// callback, so a round trip is Submit, Sink.Receive and Sender.Receive
// with no per-packet closure.
type loopback struct {
	s         *sim.Scheduler
	dst       interface{ Receive(*packet.Packet) }
	deliverFn func(any)
}

func newLoopback(s *sim.Scheduler) *loopback {
	w := &loopback{s: s}
	w.deliverFn = func(arg any) { w.dst.Receive(arg.(*packet.Packet)) }
	return w
}

func (w *loopback) Send(p *packet.Packet) { w.s.AfterCall(0, w.deliverFn, p) }

// roundTripDriver pushes packets one at a time through a sender/sink pair
// of each TCP variant the workload runs, joined by loopback wires, and
// reports the mean ns per round trip over the variants.
func roundTripDriver(sh shape, seed int64) (float64, error) {
	const trips = 100_000
	var total float64
	for _, p := range sh.protocols {
		s := sim.NewScheduler()
		pool := packet.NewPool()
		fwd, rev := newLoopback(s), newLoopback(s)
		cfg := tcp.Config{
			Flow: 1, Src: 2, Dst: 1,
			Variant:           p.TCPVariant(),
			PacketSize:        sh.cfg.PacketSize,
			AckSize:           sh.cfg.AckSize,
			MaxWindow:         sh.cfg.MaxWindow,
			MinRTO:            sh.cfg.MinRTO,
			DelayedAcks:       p == core.RenoDelayAck,
			DelayedAckTimeout: sh.cfg.DelayedAckTimeout,
			Vegas:             sh.cfg.Vegas,
			Sched:             s,
			Pool:              pool,
		}
		sendCfg, sinkCfg := cfg, cfg
		sendCfg.Out, sinkCfg.Out = fwd, rev
		snd, err := tcp.NewSender(sendCfg)
		if err != nil {
			return 0, err
		}
		snk, err := tcp.NewSink(sinkCfg)
		if err != nil {
			return 0, err
		}
		fwd.dst, rev.dst = snk, snd
		t0 := time.Now()
		for i := 0; i < trips; i++ {
			snd.Submit()
			for s.Step() {
			}
		}
		d := time.Since(t0)
		if snk.Delivered() != trips || snd.Counters().DataSent != trips || pool.Live() != 0 {
			return 0, fmt.Errorf("%v: delivered %d, sent %d, live packets %d after %d trips",
				p, snk.Delivered(), snd.Counters().DataSent, pool.Live(), trips)
		}
		total += perOp(d, trips)
	}
	return total / float64(len(sh.protocols)), nil
}

// queueDriver builds the named discipline with the workload's buffer and
// holds it at the workload's mean bottleneck occupancy: every arrival is
// followed by a departure whenever the queue is above that level. ns per
// arrival.
func queueDriver(sh shape, seed int64, name string) (float64, error) {
	const ops = 1_000_000
	spec, err := queue.ParseSpec(name)
	if err != nil {
		return 0, err
	}
	tick := sim.SerializationDelay(sh.cfg.PacketSize, sh.cfg.BottleneckRateBps)
	q, err := queue.Build(spec, queue.BuildContext{
		Capacity:       sh.cfg.BufferPackets,
		PacketSize:     sh.cfg.PacketSize,
		MeanPacketTime: tick,
		RNG:            func() *sim.RNG { return sim.NewRNG(seed) },
	})
	if err != nil {
		return 0, err
	}
	level := min(max(int(math.Round(sh.queueMean)), 1), sh.cfg.BufferPackets-1)
	pool := packet.NewPool()
	now := sim.TimeZero
	get := func() *packet.Packet {
		p := pool.Get()
		p.Kind, p.Size = packet.Data, sh.cfg.PacketSize
		return p
	}
	for q.Len() < level {
		if p := get(); !q.Enqueue(now, p) {
			pool.Put(p)
		}
	}
	accepted, dequeued := 0, 0
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		now = now.Add(tick)
		if p := get(); q.Enqueue(now, p) {
			accepted++
		} else {
			pool.Put(p)
		}
		if q.Len() > level {
			pool.Put(q.Dequeue(now))
			dequeued++
		}
	}
	d := time.Since(t0)
	if accepted == 0 || accepted-dequeued != q.Len()-level || pool.Live() != q.Len() {
		return 0, fmt.Errorf("%s: accepted %d, dequeued %d, length %d at level %d, live packets %d",
			name, accepted, dequeued, q.Len(), level, pool.Live())
	}
	return perOp(d, ops), nil
}

// sink counts and releases delivered packets.
type sink struct {
	pool *packet.Pool
	n    int
}

func (k *sink) Receive(p *packet.Packet) {
	k.n++
	k.pool.Put(p)
}

// linkDriver feeds a client access link, wired as the experiment wires it,
// one MaxWindow back-to-back burst at a time and drains each burst, so
// that deliveries take the burst-train path. ns per packet.
func linkDriver(sh shape, _ int64) (float64, error) {
	const bursts = 20_000
	c := sh.cfg
	s := sim.NewScheduler()
	pool := packet.NewPool()
	dst := &sink{pool: pool}
	l, err := link.New(s, link.Config{
		Name:            "bench->gw",
		RateBps:         c.ClientRateBps,
		Delay:           c.ClientDelay,
		Queue:           queue.NewFIFO(c.AccessBufferPackets),
		Dst:             dst,
		Pool:            pool,
		Lane:            sim.NewLanes().Next(),
		Overprovisioned: c.AccessBufferPackets >= 2*c.MaxWindow,
	})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for b := 0; b < bursts; b++ {
		for i := 0; i < c.MaxWindow; i++ {
			p := pool.Get()
			p.Kind, p.Size = packet.Data, c.PacketSize
			l.Send(p)
		}
		if err := s.RunAll(); err != nil {
			return 0, err
		}
	}
	d := time.Since(t0)
	n := bursts * c.MaxWindow
	st := l.Stats()
	if dst.n != n || st.Drops != 0 || st.Departures != uint64(n) || pool.Live() != 0 {
		return 0, fmt.Errorf("delivered %d of %d, drops %d, departures %d, live packets %d",
			dst.n, n, st.Drops, st.Departures, pool.Live())
	}
	return perOp(d, n), nil
}

// poolDriver checks a window's worth of packets out of a pool and back.
// ns per Get+Put pair.
func poolDriver(sh shape, _ int64) (float64, error) {
	const rounds = 200_000
	w := sh.cfg.MaxWindow
	pool := packet.NewPool()
	held := make([]*packet.Packet, w)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range held {
			held[i] = pool.Get()
		}
		for _, p := range held {
			pool.Put(p)
		}
	}
	d := time.Since(t0)
	gets, puts, allocs := pool.Stats()
	if n := uint64(rounds * w); gets != n || puts != n || allocs != uint64(w) || pool.Live() != 0 {
		return 0, fmt.Errorf("gets %d, puts %d, allocs %d, live %d", gets, puts, allocs, pool.Live())
	}
	return perOp(d, rounds*w), nil
}

// cacheTimes times runcache.Key over each result's configuration and Put
// and Get of its summary, cycling over the results until every operation
// has at least minOps samples. It returns the median µs of each.
func cacheTimes(dir string, results []*core.Result) (key, put, get float64, err error) {
	const minOps = 200
	store, err := runcache.Open(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	var keys, puts, gets []float64
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for i := 0; len(keys) < minOps; i++ {
		r := results[i%len(results)]
		data, err := json.Marshal(r.Summary())
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		k, err := runcache.Key("perfbench/result", r.Config)
		t1 := time.Now()
		if err != nil {
			return 0, 0, 0, err
		}
		if err := store.Put(k, data); err != nil {
			return 0, 0, 0, err
		}
		t2 := time.Now()
		got, ok, err := store.Get(k)
		t3 := time.Now()
		if err != nil || !ok || !bytes.Equal(got, data) {
			return 0, 0, 0, fmt.Errorf("runcache: get %.12s returned ok=%v err=%v and %d of %d bytes", k, ok, err, len(got), len(data))
		}
		keys = append(keys, us(t1.Sub(t0)))
		puts = append(puts, us(t2.Sub(t1)))
		gets = append(gets, us(t3.Sub(t2)))
	}
	return median(keys), median(puts), median(gets), nil
}
