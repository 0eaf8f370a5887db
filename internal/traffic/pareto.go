package traffic

import (
	"fmt"

	"tcpburst/internal/sim"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/transport"
)

// ParetoOnOffConfig describes a heavy-tailed on/off source: the canonical
// ingredient of self-similar aggregate traffic (Willinger et al.). During an
// "on" period packets are emitted at a fixed interval; on and off period
// lengths are Pareto distributed.
type ParetoOnOffConfig struct {
	// PacketInterval is the emission interval during on periods.
	PacketInterval sim.Duration
	// MeanOn and MeanOff are the mean burst and idle durations.
	MeanOn, MeanOff sim.Duration
	// Shape is the Pareto tail index alpha; values in (1,2] give finite
	// mean but infinite variance (classically 1.5).
	Shape float64
	// Dst receives one Submit call per generated packet. Required.
	Dst transport.Source
	// Sched is the simulation kernel. Required.
	Sched *sim.Scheduler
	// RNG supplies the Pareto variates. Required.
	RNG *sim.RNG
	// Generated, when attached, counts every emitted packet into the
	// telemetry registry; the zero handle is a no-op.
	Generated telemetry.Counter
	// Lane and Lazy are as in PoissonConfig.
	Lane *sim.Lane
	Lazy bool
}

// ParetoOnOff is a heavy-tailed on/off packet source. Its source events
// are burst starts and in-burst emissions; the emission that finds the
// burst over generates nothing and schedules the next burst start.
type ParetoOnOff struct {
	driver
	cfg       ParetoOnOffConfig
	on        bool
	burstEnds sim.Time
	bursts    uint64
}

var _ Generator = (*ParetoOnOff)(nil)

// NewParetoOnOff returns a stopped source, or an error for an invalid
// configuration.
func NewParetoOnOff(cfg ParetoOnOffConfig) (*ParetoOnOff, error) {
	switch {
	case cfg.PacketInterval <= 0:
		return nil, fmt.Errorf("pareto: packet interval %v <= 0", cfg.PacketInterval)
	case cfg.MeanOn <= 0 || cfg.MeanOff <= 0:
		return nil, fmt.Errorf("pareto: mean on %v / off %v must be positive", cfg.MeanOn, cfg.MeanOff)
	case cfg.Shape <= 1:
		return nil, fmt.Errorf("pareto: shape %v <= 1 has infinite mean", cfg.Shape)
	case cfg.Dst == nil:
		return nil, fmt.Errorf("pareto: nil destination")
	case cfg.Sched == nil:
		return nil, fmt.Errorf("pareto: nil scheduler")
	case cfg.RNG == nil:
		return nil, fmt.Errorf("pareto: nil RNG")
	case cfg.Lazy && cfg.Lane == nil:
		return nil, fmt.Errorf("pareto: lazy source needs a lane")
	}
	g := &ParetoOnOff{cfg: cfg}
	g.init(g, cfg.Sched, cfg.Lane, cfg.Lazy, cfg.Dst, cfg.Generated)
	return g, nil
}

// Bursts returns the number of on periods begun.
func (g *ParetoOnOff) Bursts() uint64 { return g.bursts }

// paretoDuration draws a Pareto-distributed duration with the given mean:
// mean = xm * alpha/(alpha-1), so xm = mean*(alpha-1)/alpha.
func (g *ParetoOnOff) paretoDuration(mean sim.Duration) sim.Duration {
	xm := float64(mean) * (g.cfg.Shape - 1) / g.cfg.Shape
	d := sim.Duration(g.cfg.RNG.Pareto(g.cfg.Shape, xm))
	if d < 1 {
		d = 1
	}
	return d
}

// first begins with an off period so sources started together
// desynchronize.
func (g *ParetoOnOff) first() sim.Duration {
	g.on = false
	return g.paretoDuration(g.cfg.MeanOff)
}

func (g *ParetoOnOff) step(now sim.Time) (bool, sim.Duration) {
	if !g.on {
		g.on = true
		g.bursts++
		g.burstEnds = now.Add(g.paretoDuration(g.cfg.MeanOn))
	}
	if now.After(g.burstEnds) {
		g.on = false
		return false, g.paretoDuration(g.cfg.MeanOff)
	}
	return true, g.cfg.PacketInterval
}
