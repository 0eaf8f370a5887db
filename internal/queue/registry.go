package queue

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tcpburst/internal/sim"
	"tcpburst/internal/telemetry"
)

// BuildContext carries everything a discipline factory may need beyond its
// Spec: the gateway's physical dimensions, the outgoing link's typical
// packet service time, a lazy RNG supplier, and preregistered telemetry
// handles. Factories must call RNG only if the discipline actually draws
// random numbers — forking a stream consumes parent RNG state, so an
// unconditional fork would shift every downstream stream and break
// bit-identical replay of the deterministic disciplines.
type BuildContext struct {
	// Capacity is the physical buffer limit in packets.
	Capacity int
	// PacketSize is the experiment's data-packet size in bytes (DRR's
	// quantum, admission-control byte accounting).
	PacketSize int
	// MeanPacketTime is the transmission time of a typical packet on the
	// outgoing link — RED's idle-decay clock, PIE's per-packet drain
	// estimate.
	MeanPacketTime sim.Duration
	// RNG lazily forks the discipline's random stream. Nil only in
	// validation-time scratch builds is not allowed: the harness always
	// supplies it, and factories needing randomness call it exactly once.
	RNG func() *sim.RNG
	// Metrics holds the preregistered telemetry handles a discipline
	// publishes into; the zero value disables publication.
	Metrics Metrics
}

// Metrics bundles the generic telemetry handles a discipline publishes.
// Factories wire the subset their discipline emits; zero handles no-op.
type Metrics struct {
	// EarlyDrops counts proactive (AQM control-law) drops.
	EarlyDrops telemetry.Counter
	// ForcedDrops counts physical buffer-overflow drops.
	ForcedDrops telemetry.Counter
	// Marks counts ECN marks applied instead of drops.
	Marks telemetry.Counter
	// Shed counts arrivals refused by admission control (token/leaky
	// bucket exhaustion) — load shedding, not queue overflow.
	Shed telemetry.Counter
	// Evictions counts queued packets displaced to admit an arrival
	// (DRR's longest-queue drop).
	Evictions telemetry.Counter
}

// Stats is the generic end-of-run counter snapshot a discipline reports
// through StatsReporter. FinalAvg is the discipline's terminal control
// variable: RED's average queue estimate, PIE's drop probability, CoDel's
// in-drop-state indicator, an admission bucket's remaining tokens.
type Stats struct {
	EarlyDrops  uint64
	ForcedDrops uint64
	Marks       uint64
	Shed        uint64
	FinalAvg    float64
}

// StatsReporter is implemented by disciplines with drop/mark/shed counters
// worth surfacing in the experiment summary.
type StatsReporter interface {
	DisciplineStats() Stats
}

// Factory builds a running discipline from its parsed spec.
type Factory func(spec Spec, ctx BuildContext) (Discipline, error)

// registry maps discipline names to factories. names is the same set kept
// sorted, so error messages and Names list deterministically without
// ranging over the map.
var (
	factories = make(map[string]Factory)
	names     []string
)

// Register installs a discipline factory under name. It must be called
// from an init function inside this package (the queuespec lint enforces
// it): registration is a program-shape fact, not runtime behavior, and
// keeping it here means the registry's contents are knowable by reading
// one package. Duplicate or empty names panic — both are programmer
// errors caught by any test that imports the package.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("queue: Register with empty name or nil factory")
	}
	if _, dup := factories[name]; dup {
		panic("queue: duplicate discipline " + name)
	}
	factories[name] = f
	i := sort.SearchStrings(names, name)
	names = append(names, "")
	copy(names[i+1:], names[i:])
	names[i] = name
}

// Names lists every registered discipline, sorted.
func Names() []string {
	out := make([]string, len(names))
	copy(out, names)
	return out
}

// Registered reports whether a discipline name has a factory.
func Registered(name string) bool {
	_, ok := factories[name]
	return ok
}

// Build constructs the discipline a spec names. Unknown names and invalid
// or unknown parameters return errors that name the discipline and list
// the registry, so a CLI typo is self-explaining.
func Build(spec Spec, ctx BuildContext) (Discipline, error) {
	f, ok := factories[spec.Name]
	if !ok {
		return nil, fmt.Errorf("queue: unknown discipline %q (registered: %s)",
			spec.Name, strings.Join(Names(), ", "))
	}
	d, err := f(spec, ctx)
	if err != nil {
		return nil, fmt.Errorf("queue: build %q: %w", spec, err)
	}
	return d, nil
}

func init() {
	Register("fifo", buildFIFO)
	Register("red", buildRED)
	Register("drr", buildDRR)
	Register("codel", buildCoDel)
	Register("pie", buildPIE)
	Register("tokenbucket", buildTokenBucket)
	Register("leakybucket", buildLeakyBucket)
}

// buildFIFO accepts no parameters: drop-tail has nothing to tune beyond
// the capacity the gateway already fixes.
func buildFIFO(spec Spec, ctx BuildContext) (Discipline, error) {
	if err := spec.params().finish(); err != nil {
		return nil, err
	}
	return NewFIFO(ctx.Capacity), nil
}

// REDSettings reads RED's tunables from a "red" spec; ok is false for any
// other discipline. Absent keys take the paper-era values of
// DefaultREDConfig. The packet gateway (buildRED) and the fluid backend's
// mean-field RED law both read RED through it, so the two backends cannot
// disagree on a default. Only the tunables are set: capacity, clock, RNG
// and metrics are the builder's.
func REDSettings(spec Spec) (cfg REDConfig, ok bool, err error) {
	if spec.Name != "red" {
		return REDConfig{}, false, nil
	}
	p := spec.params()
	cfg = REDConfig{
		MinThreshold: p.float("min", 10),
		MaxThreshold: p.float("max", 40),
		Weight:       p.float("weight", 0.002),
		MaxProb:      p.float("maxprob", 0.1),
		ECN:          p.boolean("ecn", false),
		Gentle:       p.boolean("gentle", false),
	}
	return cfg, true, p.finish()
}

func buildRED(spec Spec, ctx BuildContext) (Discipline, error) {
	cfg, _, err := REDSettings(spec)
	if err != nil {
		return nil, err
	}
	cfg.Capacity = ctx.Capacity
	cfg.MeanPacketTime = ctx.MeanPacketTime
	cfg.Metrics = REDMetrics{
		EarlyDrops:  ctx.Metrics.EarlyDrops,
		ForcedDrops: ctx.Metrics.ForcedDrops,
		Marks:       ctx.Metrics.Marks,
	}
	cfg.RNG = ctx.RNG()
	return NewRED(cfg)
}

// buildDRR accepts no parameters; the quantum is one data packet, as the
// experiment has always configured it.
func buildDRR(spec Spec, ctx BuildContext) (Discipline, error) {
	if err := spec.params().finish(); err != nil {
		return nil, err
	}
	d, err := NewDRR(ctx.Capacity, ctx.PacketSize)
	if err != nil {
		return nil, err
	}
	d.SetEvictionMetric(ctx.Metrics.Evictions)
	return d, nil
}

func buildCoDel(spec Spec, ctx BuildContext) (Discipline, error) {
	p := spec.params()
	cfg := CoDelConfig{
		Capacity: ctx.Capacity,
		Target:   p.duration("target", 5*time.Millisecond),
		Interval: p.duration("interval", 100*time.Millisecond),
		ECN:      p.boolean("ecn", false),
		Metrics:  ctx.Metrics,
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return NewCoDel(cfg)
}

func buildPIE(spec Spec, ctx BuildContext) (Discipline, error) {
	p := spec.params()
	cfg := PIEConfig{
		Capacity:       ctx.Capacity,
		Target:         p.duration("target", 15*time.Millisecond),
		TUpdate:        p.duration("tupdate", 15*time.Millisecond),
		Alpha:          p.float("alpha", 0.125),
		Beta:           p.float("beta", 1.25),
		MeanPacketTime: ctx.MeanPacketTime,
		ECN:            p.boolean("ecn", false),
		MaxECNProb:     p.float("maxecnprob", 0.1),
		Metrics:        ctx.Metrics,
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	cfg.RNG = ctx.RNG()
	return NewPIE(cfg)
}

func buildTokenBucket(spec Spec, ctx BuildContext) (Discipline, error) {
	p := spec.params()
	cfg := AdmissionConfig{
		Capacity: ctx.Capacity,
		Rate:     p.float("rate", 0),
		Burst:    p.float("burst", float64(ctx.Capacity)),
		PerFlow:  p.boolean("perflow", false),
		Metrics:  ctx.Metrics,
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return NewTokenBucket(cfg)
}

func buildLeakyBucket(spec Spec, ctx BuildContext) (Discipline, error) {
	p := spec.params()
	cfg := AdmissionConfig{
		Capacity: ctx.Capacity,
		Rate:     p.float("rate", 0),
		Burst:    p.float("depth", float64(ctx.Capacity)),
		PerFlow:  p.boolean("perflow", false),
		Metrics:  ctx.Metrics,
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return NewLeakyBucket(cfg)
}
