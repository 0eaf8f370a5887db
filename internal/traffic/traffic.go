// Package traffic implements application-level workload generators. The
// paper's clients generate Poisson traffic — single packets with
// exponentially distributed inter-generation times — which the transport
// layer then modulates. CBR and heavy-tailed Pareto on/off sources support
// the baseline and self-similarity extensions.
package traffic

import (
	"fmt"

	"tcpburst/internal/sim"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/transport"
)

// Generator is a workload source bound to a transport endpoint.
type Generator interface {
	// Start begins generating at the current instant.
	Start()
	// Stop catches up to the current instant and ceases generation; safe
	// to call more than once.
	Stop()
	// Generated returns the number of application packets produced.
	Generated() uint64
	// CatchUp executes the source events a dormant source holds back
	// that precede the event executing now (a no-op when not dormant).
	CatchUp()
	// Elided returns the source events executed by catch-up instead of
	// by the scheduler.
	Elided() uint64
}

// PoissonConfig describes a Poisson packet source.
type PoissonConfig struct {
	// MeanInterval is the mean packet inter-generation time 1/λ
	// (paper: 0.01 s).
	MeanInterval sim.Duration
	// Dst receives one Submit call per generated packet. Required.
	Dst transport.Source
	// Sched is the simulation kernel. Required.
	Sched *sim.Scheduler
	// RNG supplies the exponential variates. Required.
	RNG *sim.RNG
	// Generated, when attached, counts every emitted packet into the
	// telemetry registry; the zero handle is a no-op.
	Generated telemetry.Counter
	// Lane, when set, is the source's private ordinal stream; nil files
	// events on the scheduler's default lane.
	Lane *sim.Lane
	// Lazy lets the source go dormant while Dst reports a backlog (see
	// driver.go). It requires Lane; a Dst that is not a
	// transport.Backlogged keeps the source eager.
	Lazy bool
}

// Poisson emits single packets with exponentially distributed
// inter-generation times.
type Poisson struct {
	driver
	mean sim.Duration
	rng  *sim.RNG
}

var _ Generator = (*Poisson)(nil)

// NewPoisson returns a stopped Poisson source, or an error for an invalid
// configuration.
func NewPoisson(cfg PoissonConfig) (*Poisson, error) {
	switch {
	case cfg.MeanInterval <= 0:
		return nil, fmt.Errorf("poisson: mean interval %v <= 0", cfg.MeanInterval)
	case cfg.Dst == nil:
		return nil, fmt.Errorf("poisson: nil destination")
	case cfg.Sched == nil:
		return nil, fmt.Errorf("poisson: nil scheduler")
	case cfg.RNG == nil:
		return nil, fmt.Errorf("poisson: nil RNG")
	case cfg.Lazy && cfg.Lane == nil:
		return nil, fmt.Errorf("poisson: lazy source needs a lane")
	}
	g := &Poisson{mean: cfg.MeanInterval, rng: cfg.RNG}
	g.init(g, cfg.Sched, cfg.Lane, cfg.Lazy, cfg.Dst, cfg.Generated)
	return g, nil
}

func (g *Poisson) first() sim.Duration { return g.rng.ExpDuration(g.mean) }

func (g *Poisson) step(sim.Time) (bool, sim.Duration) {
	return true, g.rng.ExpDuration(g.mean)
}

// CBRConfig describes a constant-bit-rate source.
type CBRConfig struct {
	// Interval is the fixed packet inter-generation time.
	Interval sim.Duration
	// Dst receives one Submit call per generated packet. Required.
	Dst transport.Source
	// Sched is the simulation kernel. Required.
	Sched *sim.Scheduler
	// Generated, when attached, counts every emitted packet into the
	// telemetry registry; the zero handle is a no-op.
	Generated telemetry.Counter
	// Lane and Lazy are as in PoissonConfig.
	Lane *sim.Lane
	Lazy bool
}

// CBR emits packets at a fixed interval.
type CBR struct {
	driver
	interval sim.Duration
}

var _ Generator = (*CBR)(nil)

// NewCBR returns a stopped constant-rate source, or an error for an invalid
// configuration.
func NewCBR(cfg CBRConfig) (*CBR, error) {
	switch {
	case cfg.Interval <= 0:
		return nil, fmt.Errorf("cbr: interval %v <= 0", cfg.Interval)
	case cfg.Dst == nil:
		return nil, fmt.Errorf("cbr: nil destination")
	case cfg.Sched == nil:
		return nil, fmt.Errorf("cbr: nil scheduler")
	case cfg.Lazy && cfg.Lane == nil:
		return nil, fmt.Errorf("cbr: lazy source needs a lane")
	}
	g := &CBR{interval: cfg.Interval}
	g.init(g, cfg.Sched, cfg.Lane, cfg.Lazy, cfg.Dst, cfg.Generated)
	return g, nil
}

func (g *CBR) first() sim.Duration { return g.interval }

func (g *CBR) step(sim.Time) (bool, sim.Duration) { return true, g.interval }
