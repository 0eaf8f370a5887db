package traffic

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tcpburst/internal/sim"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/transport"
)

// backlogSink is a window-limited destination shaped like tcp.Sender: it
// transmits while fewer than window packets are unacknowledged, and its
// window state changes only in ack and timeout events, which catch the
// feeder up first and report a drained backlog last. It logs every
// transmission and what each ack or timeout sees.
type backlogSink struct {
	sched                  *sim.Scheduler
	window                 int64
	submitted, sent, acked int64
	feeder                 transport.Feeder
	log                    *bytes.Buffer // nil: log nothing

	ackFn, rtoFn func()
}

var _ transport.Backlogged = (*backlogSink)(nil)

func newBacklogSink(sched *sim.Scheduler, window int64, log *bytes.Buffer) *backlogSink {
	b := &backlogSink{sched: sched, window: window, log: log}
	b.ackFn = func() { b.act("ack", func() { b.acked = b.sent }) }
	b.rtoFn = func() { b.act("rto", func() { b.sent = b.acked }) }
	return b
}

func (b *backlogSink) Submit() {
	b.submitted++
	b.send()
}

func (b *backlogSink) Backlog() int64 { return b.submitted - b.sent }

func (b *backlogSink) SetFeeder(f transport.Feeder) { b.feeder = f }

func (b *backlogSink) send() {
	for b.sent < b.submitted && b.sent-b.acked < b.window {
		if b.log != nil {
			fmt.Fprintf(b.log, "%v send %d\n", b.sched.Now(), b.sent)
		}
		b.sent++
	}
}

func (b *backlogSink) act(what string, change func()) {
	if b.feeder != nil {
		b.feeder.CatchUp()
	}
	if b.log != nil {
		fmt.Fprintf(b.log, "%v %s submitted=%d sent=%d acked=%d\n", b.sched.Now(), what, b.submitted, b.sent, b.acked)
	}
	change()
	b.send()
	if b.feeder != nil && b.sent == b.submitted {
		b.feeder.Drained()
	}
}

// lazyModel builds one source model on lane, lazy or eager.
type lazyModel struct {
	name string
	mk   func(sched *sim.Scheduler, rng *sim.RNG, dst transport.Source, gen telemetry.Counter, lane *sim.Lane, lazy bool) (Generator, error)
}

var lazyModels = []lazyModel{
	{"poisson", func(sched *sim.Scheduler, rng *sim.RNG, dst transport.Source, gen telemetry.Counter, lane *sim.Lane, lazy bool) (Generator, error) {
		return NewPoisson(PoissonConfig{MeanInterval: time.Millisecond, Dst: dst, Sched: sched, RNG: rng, Generated: gen, Lane: lane, Lazy: lazy})
	}},
	{"cbr", func(sched *sim.Scheduler, _ *sim.RNG, dst transport.Source, gen telemetry.Counter, lane *sim.Lane, lazy bool) (Generator, error) {
		return NewCBR(CBRConfig{Interval: time.Millisecond, Dst: dst, Sched: sched, Generated: gen, Lane: lane, Lazy: lazy})
	}},
	{"pareto", func(sched *sim.Scheduler, rng *sim.RNG, dst transport.Source, gen telemetry.Counter, lane *sim.Lane, lazy bool) (Generator, error) {
		return NewParetoOnOff(ParetoOnOffConfig{
			PacketInterval: time.Millisecond, MeanOn: 20 * time.Millisecond, MeanOff: 5 * time.Millisecond, Shape: 1.5,
			Dst: dst, Sched: sched, RNG: rng, Generated: gen, Lane: lane, Lazy: lazy,
		})
	}},
}

// arrivalInstants returns the instants of a model's first n packets (seed
// 7), from an eager run into a plain counting destination.
func arrivalInstants(t *testing.T, m lazyModel, n int) []sim.Time {
	t.Helper()
	sched := sim.NewScheduler()
	dst := &countingSource{sched: sched}
	g, err := m.mk(sched, sim.NewRNG(7), dst, telemetry.Counter{}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	for len(dst.times) < n && sched.Step() {
	}
	if len(dst.times) < n {
		t.Fatalf("%s: only %d arrivals", m.name, len(dst.times))
	}
	return dst.times[:n]
}

// tieScenario places ack deliveries (on a link lane drawn before the
// source lane), timeouts (default lane), telemetry ticks, and the horizon.
type tieScenario struct {
	acks, rtos []sim.Time
	tick       sim.Duration // 0: no sampler
	horizon    sim.Time
}

// runTies executes a scenario and returns everything observable: the
// destination's log, the streamed telemetry rows, and the final counts.
func runTies(t *testing.T, m lazyModel, sc tieScenario, lazy bool) (string, uint64) {
	t.Helper()
	sched := sim.NewScheduler()
	lanes := sim.NewLanes()
	linkLane := lanes.Next()
	srcLane := lanes.Next()
	var log bytes.Buffer
	dst := newBacklogSink(sched, 3, &log)
	reg := telemetry.NewRegistry()
	g, err := m.mk(sched, sim.NewRNG(7), dst, reg.Counter("app.generated"), srcLane, lazy)
	if err != nil {
		t.Fatal(err)
	}
	reg.Probe("sim.events", func() float64 { return float64(sched.Fired()) })
	reg.Probe("backlog", func() float64 { return float64(dst.Backlog()) })
	var rows bytes.Buffer
	var sampler *telemetry.Sampler
	if sc.tick > 0 {
		if sampler, err = telemetry.NewSampler(sched, reg, sc.tick, telemetry.NewJSONL(&rows)); err != nil {
			t.Fatal(err)
		}
		sampler.BeforeSample(g.CatchUp)
		if err := sampler.Start(); err != nil {
			t.Fatal(err)
		}
	}
	for _, at := range sc.acks {
		sched.AtOn(linkLane, at, dst.ackFn)
	}
	for _, at := range sc.rtos {
		sched.At(at, dst.rtoFn)
	}
	g.Start()
	if err := sched.Run(sc.horizon); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	if sampler != nil {
		sampler.Sample()
		if err := sampler.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&log, "generated=%d submitted=%d fired=%d\n%s", g.Generated(), dst.submitted, sched.Fired(), rows.String())
	return log.String(), g.Elided()
}

// TestLazyMatchesEagerAtTies puts a pending arrival exactly at the instant
// of an ack delivery, a timeout, a telemetry tick, and the horizon, for
// every source model, and requires the dormant source to reproduce the
// eager run's every observable: which arrivals an event sees, the
// transmissions, the sampled rows, and the executed-event count.
func TestLazyMatchesEagerAtTies(t *testing.T) {
	for _, m := range lazyModels {
		at := arrivalInstants(t, m, 40)
		// mid returns an instant strictly between arrivals i and i+1.
		mid := func(i int) sim.Time { return at[i] + (at[i+1]-at[i])/2 }
		background := []sim.Time{mid(5), mid(11), mid(18), mid(26)}
		cases := map[string]tieScenario{
			"ack":     {acks: []sim.Time{at[6], at[12], at[19], at[27], at[33]}, horizon: mid(36)},
			"rto":     {acks: background, rtos: []sim.Time{at[9], at[22], at[30]}, horizon: mid(36)},
			"tick":    {acks: background, tick: at[8].Sub(sim.TimeZero), horizon: mid(36)},
			"horizon": {acks: background, horizon: at[36]},
		}
		for name, sc := range cases {
			t.Run(m.name+"/"+name, func(t *testing.T) {
				if at[6] == at[7] {
					t.Fatalf("arrival instants collide: %v", at[:8])
				}
				eager, eagerElided := runTies(t, m, sc, false)
				lazy, lazyElided := runTies(t, m, sc, true)
				if eagerElided != 0 {
					t.Errorf("eager run elided %d source events", eagerElided)
				}
				if lazyElided == 0 {
					t.Errorf("lazy run never went dormant")
				}
				if lazy != eager {
					t.Errorf("lazy diverges from eager\neager:\n%s\nlazy:\n%s", eager, lazy)
				}
			})
		}
	}
}

// TestLazyEagerWithoutBacklogReport keeps a source whose destination
// cannot report a backlog on the per-event path even when asked to be
// lazy, and rejects a lazy source without a lane.
func TestLazyEagerWithoutBacklogReport(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &countingSource{sched: sched}
	g, err := NewPoisson(PoissonConfig{MeanInterval: time.Millisecond, Dst: dst, Sched: sched, RNG: sim.NewRNG(1),
		Lane: sim.NewLanes().Next(), Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	if err := sched.Run(sim.TimeZero.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	if g.Elided() != 0 || g.Generated() != uint64(len(dst.times)) || g.Generated() != sched.Fired() {
		t.Errorf("elided %d, generated %d, submitted %d, fired %d", g.Elided(), g.Generated(), len(dst.times), sched.Fired())
	}
	if _, err := NewPoisson(PoissonConfig{MeanInterval: time.Millisecond, Dst: dst, Sched: sched, RNG: sim.NewRNG(1), Lazy: true}); err == nil {
		t.Error("lazy source without a lane accepted")
	}
}

// TestCatchUpAllocFree pins the catch-up loop to zero allocations: one
// event ~100 ms after the last materializes about a hundred arrivals.
func TestCatchUpAllocFree(t *testing.T) {
	sched := sim.NewScheduler()
	lanes := sim.NewLanes()
	linkLane := lanes.Next()
	dst := newBacklogSink(sched, 1, nil)
	reg := telemetry.NewRegistry()
	g, err := NewPoisson(PoissonConfig{MeanInterval: time.Millisecond, Dst: dst, Sched: sched, RNG: sim.NewRNG(1),
		Generated: reg.Counter("app.generated"), Lane: lanes.Next(), Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	if err := sched.Run(sim.TimeZero.Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	catchUp := g.CatchUp
	allocs := testing.AllocsPerRun(50, func() {
		sched.AtOn(linkLane, sched.Now().Add(100*time.Millisecond), catchUp)
		sched.Step()
	})
	if allocs != 0 {
		t.Errorf("catch-up allocates %.1f times per batch", allocs)
	}
	if g.Elided() < 50*80 {
		t.Errorf("elided only %d arrivals over 51 catch-ups of ~100", g.Elided())
	}
}
