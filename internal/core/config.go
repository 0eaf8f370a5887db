// Package core is the experiment harness reproducing the paper's study: it
// builds the client–gateway–server dumbbell of Figure 1, drives N Poisson
// clients through a chosen transport protocol and gateway queueing
// discipline, and measures the burstiness (coefficient of variation of
// per-RTT packet counts at the gateway), throughput, loss, retransmission
// behavior, and congestion-window evolution that the paper reports in
// Table 1 and Figures 2–13.
package core

import (
	"fmt"
	"time"

	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
	"tcpburst/internal/tcp"
	"tcpburst/internal/telemetry"
)

// Protocol selects the transport protocol run by every client.
type Protocol int

// Protocols under study. UDP is the unmodulated control; RenoDelayAck is
// TCP Reno with delayed acknowledgments enabled at the sink; Tahoe,
// NewReno and Sack extend the paper's set for ablation.
const (
	UDP Protocol = iota + 1
	Reno
	RenoDelayAck
	Vegas
	Tahoe
	NewReno
	Sack
)

// Protocols lists every supported protocol in presentation order.
func Protocols() []Protocol {
	return []Protocol{UDP, Reno, RenoDelayAck, Vegas, Tahoe, NewReno, Sack}
}

// PaperProtocols lists the protocols evaluated in the paper's figures.
func PaperProtocols() []Protocol {
	return []Protocol{UDP, Reno, RenoDelayAck, Vegas}
}

// String returns the figure-legend name of the protocol.
func (p Protocol) String() string {
	switch p {
	case UDP:
		return "udp"
	case Reno:
		return "reno"
	case RenoDelayAck:
		return "reno-delayack"
	case Vegas:
		return "vegas"
	case Tahoe:
		return "tahoe"
	case NewReno:
		return "newreno"
	case Sack:
		return "sack"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// IsTCP reports whether the protocol is a TCP variant.
func (p Protocol) IsTCP() bool { return p != UDP }

// TCPVariant maps the protocol to its congestion-control variant. It is
// only meaningful when IsTCP is true.
func (p Protocol) TCPVariant() tcp.Variant {
	switch p {
	case Reno, RenoDelayAck:
		return tcp.Reno
	case Vegas:
		return tcp.Vegas
	case Tahoe:
		return tcp.Tahoe
	case NewReno:
		return tcp.NewReno
	case Sack:
		return tcp.SACK
	default:
		return tcp.Reno
	}
}

// ParseProtocol converts a legend name back to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range Protocols() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q", s)
}

// GatewayQueue is the bottleneck queueing discipline, held as the canonical
// text of its queue.Spec: "fifo", "red?ecn=true", "codel?target=5ms". The
// empty string means fifo. WithDefaults canonicalizes the text (parameters
// sorted by key), so two spellings of one discipline configure — and cache
// — identically; Validate builds it against the registry.
type GatewayQueue string

// The paper's disciplines, FIFO and RED, plus DRR (deficit-round-robin fair
// queueing), which extends the study to the scheduling question the paper's
// introduction raises. Every other registered discipline is spec text such
// as GatewayQueue("codel?target=5ms").
const (
	FIFO GatewayQueue = "fifo"
	RED  GatewayQueue = "red"
	DRR  GatewayQueue = "drr"
)

// String returns the discipline's spec text.
func (q GatewayQueue) String() string { return string(q) }

// spec parses the discipline text for code working from a validated
// Config. Validate rejects text that does not parse, so the error is
// dropped here: unparsable text yields the zero Spec, which builds nothing.
func (q GatewayQueue) spec() queue.Spec {
	s, _ := queue.ParseSpec(string(q))
	return s
}

// Config fully describes one experiment. DefaultConfig returns the paper's
// Table 1 values (as reconstructed in DESIGN.md); zero-valued fields in a
// hand-built Config inherit those defaults via WithDefaults.
// TrafficModel selects the application workload each client generates.
type TrafficModel int

// Traffic models.
const (
	// TrafficPoisson is the paper's workload: single packets with
	// exponential inter-generation times.
	TrafficPoisson TrafficModel = iota + 1
	// TrafficParetoOnOff is the heavy-tailed on/off source of the
	// self-similarity literature (extension).
	TrafficParetoOnOff
)

// String returns the model name.
func (m TrafficModel) String() string {
	switch m {
	case TrafficPoisson:
		return "poisson"
	case TrafficParetoOnOff:
		return "pareto"
	default:
		return fmt.Sprintf("traffic(%d)", int(m))
	}
}

// MixEntry assigns a protocol to a contiguous block of clients in a
// mixed-protocol experiment (extension: the competition studies of Mo, La,
// Anantharam & Walrand that the paper cites as [12]).
type MixEntry struct {
	// Protocol run by this block of clients.
	Protocol Protocol
	// Clients is the block size.
	Clients int
}

type Config struct {
	// Backend selects the execution engine: PacketBackend (the zero value,
	// event-by-event simulation) or FluidBackend (the internal/meanfield
	// ODE/fixed-point model, cost independent of Clients). Omitted from
	// JSON when zero so packet configs encode exactly as before.
	Backend Backend `json:",omitempty"`
	// Clients is the number of Poisson client streams N.
	Clients int
	// Protocol is the transport protocol run by every client.
	Protocol Protocol
	// Mix, when non-empty, assigns protocols per client block instead of
	// a single Protocol for everyone: clients 1..Mix[0].Clients run
	// Mix[0].Protocol, and so on. Clients must equal the sum of the
	// block sizes (WithDefaults fills it in when left zero), and
	// Protocol is ignored except as the label of the run.
	Mix []MixEntry
	// Gateway is the bottleneck queueing discipline as registry spec text
	// (see GatewayQueue).
	Gateway GatewayQueue
	// Seed drives every random stream in the experiment; identical
	// configurations replay identically.
	Seed int64
	// Duration is the total simulated test time (paper: 200 s).
	Duration sim.Duration
	// Warmup discards the initial measurement windows from the c.o.v.
	// (zero reproduces the paper, which measures the whole run).
	Warmup sim.Duration

	// ClientRateBps and ClientDelay describe each client access link
	// (paper: 100 Mbps, 2 ms).
	ClientRateBps float64
	ClientDelay   sim.Duration
	// ClientDelayJitter, when positive, draws each client's access delay
	// uniformly from [ClientDelay, ClientDelay+Jitter] — heterogeneous
	// RTTs (extension: probes the paper's synchronization mechanism,
	// since identical RTTs maximize lockstep window decisions).
	ClientDelayJitter sim.Duration
	// BottleneckRateBps and BottleneckDelay describe the gateway–server
	// link (paper: 31 Mbps, 20 ms — see DESIGN.md §3).
	BottleneckRateBps float64
	BottleneckDelay   sim.Duration
	// BufferPackets is the gateway buffer size B (paper: 50).
	BufferPackets int
	// AccessBufferPackets sizes the client and reverse-path buffers,
	// which the paper keeps uncongested.
	AccessBufferPackets int
	// PacketSize and AckSize are wire sizes in bytes (paper: 1000 / 40).
	PacketSize int
	AckSize    int
	// MaxWindow is TCP's maximum advertised window in packets (paper: 20).
	MaxWindow int
	// MeanInterval is the mean packet inter-generation time per client,
	// 1/λ (paper: 0.01 s). It sets the mean rate for every traffic model.
	MeanInterval sim.Duration

	// Traffic selects the per-client workload model. The paper's clients
	// are Poisson; the heavy-tailed Pareto on/off model (extension) feeds
	// the self-similarity comparison of Park/Kim/Crovella and Willinger
	// et al. through the same transports.
	Traffic TrafficModel
	// ParetoShape is the tail index for TrafficParetoOnOff (classically
	// 1.5: finite mean, infinite variance).
	ParetoShape float64
	// MeanOnTime and MeanOffTime are the mean burst and idle durations
	// for TrafficParetoOnOff. The in-burst packet interval is derived so
	// the long-run mean rate still equals 1/MeanInterval.
	MeanOnTime, MeanOffTime sim.Duration

	// WireLossProb, when positive, drops each packet serialized onto the
	// bottleneck link with this probability — random, non-congestive loss
	// (extension: the random-loss TCP study of Lakshman & Madhow that the
	// paper cites as [10]).
	WireLossProb float64
	// ReverseRateBps, when positive, overrides the server→gateway
	// acknowledgment path's bandwidth. The paper keeps the reverse path
	// uncongested; shrinking it studies ACK compression (extension).
	ReverseRateBps float64
	// ReverseBufferPackets, when positive, overrides the reverse-path
	// buffer size (defaults to AccessBufferPackets).
	ReverseBufferPackets int

	// Vegas holds the Vegas alpha/beta/gamma thresholds (paper: 1/3/1).
	Vegas tcp.VegasParams
	// MinRTO clamps TCP's retransmission timeout from below.
	MinRTO sim.Duration
	// DelayedAckTimeout bounds sink ACK coalescing for RenoDelayAck.
	DelayedAckTimeout sim.Duration

	// CwndSampleInterval enables congestion-window tracing at the given
	// period when positive (the paper samples every 0.1 s).
	CwndSampleInterval sim.Duration
	// TraceClients selects which clients to trace, 1-based as in the
	// paper's figure legends ("client 1, 10, 20"). Empty with tracing
	// enabled selects clients 1, N/2 and N.
	TraceClients []int
	// TraceQueue additionally records the bottleneck queue length at the
	// same period.
	TraceQueue bool
	// PacketLogCapacity, when positive, retains the most recent packet
	// arrival/drop events at the bottleneck in an ns-style trace ring
	// (Result.PacketLog).
	PacketLogCapacity int

	// TelemetryInterval enables the zero-allocation telemetry subsystem
	// when positive: the run publishes gateway, TCP, queue-discipline, and
	// traffic counters into a registry sampled every interval of virtual
	// time, streaming one snapshot record per tick to the sink. Sampling
	// is read-only, so results are identical with telemetry on or off.
	TelemetryInterval sim.Duration `json:",omitempty"`
	// TelemetrySink receives the streamed snapshot records. Nil with
	// telemetry enabled falls back to an in-memory ring returned in
	// Result.TelemetryRing. Excluded from JSON, and so from cache keys.
	//burst:nocache a sink is an output destination; the streamed records never feed back into results
	TelemetrySink telemetry.Sink `json:"-"`
	// TelemetrySinkFactory, when set, builds the sink per run from the
	// defaulted configuration — the hook sweeps use to give each run's
	// records a distinguishing label on a shared stream. It takes
	// precedence over TelemetrySink. Excluded from JSON.
	//burst:nocache sink construction only labels output streams; results are identical for any factory
	TelemetrySinkFactory func(Config) telemetry.Sink `json:"-"`

	// DisablePacketPool runs the experiment without the per-simulation
	// packet pool, allocating every packet. Debug knob: results are
	// bit-identical either way (the equivalence tests enforce this); the
	// pooled path is just faster.
	DisablePacketPool bool

	// Shards partitions the packet simulation across this many schedulers
	// running on separate cores, synchronized by conservative lookahead
	// windows (DESIGN.md §11). 0 or 1 runs serially. Sharded runs are
	// bit-identical to serial ones, so Shards is excluded from JSON — and
	// therefore from cache keys: the same result artifact serves every
	// shard count. Packet backend only.
	//burst:nocache sharded execution is bit-identical to serial (TestCacheKeyShardIndependent), so one artifact serves every shard count
	Shards int `json:"-"`

	// DisableBatching turns off burst-train coalescing, the idle-link
	// FIFO fast path, and lazy endpoint timers (DESIGN.md §12), forcing
	// one scheduler event per packet hop. Debug knob: results are
	// bit-identical either way (the batching equivalence tests enforce
	// this), so like Shards it is excluded from JSON and cache keys.
	//burst:nocache batching on and off produce byte-identical results (TestBatchingMatchesUnbatched), so the key must not fork
	DisableBatching bool `json:"-"`
}

// DefaultConfig returns the paper's Table 1 parameters for n clients using
// the given protocol and gateway discipline.
func DefaultConfig(n int, p Protocol, q GatewayQueue) Config {
	return Config{
		Clients:             n,
		Protocol:            p,
		Gateway:             q,
		Seed:                1,
		Duration:            200 * time.Second,
		ClientRateBps:       100e6,
		ClientDelay:         2 * time.Millisecond,
		BottleneckRateBps:   31e6,
		BottleneckDelay:     20 * time.Millisecond,
		BufferPackets:       50,
		AccessBufferPackets: 1000,
		PacketSize:          1000,
		AckSize:             40,
		MaxWindow:           20,
		MeanInterval:        10 * time.Millisecond,
		Traffic:             TrafficPoisson,
		ParetoShape:         1.5,
		MeanOnTime:          100 * time.Millisecond,
		MeanOffTime:         200 * time.Millisecond,
		Vegas:               tcp.DefaultVegasParams(),
		MinRTO:              200 * time.Millisecond,
		DelayedAckTimeout:   100 * time.Millisecond,
	}
}

// WithDefaults fills zero-valued tunables from DefaultConfig, keeping any
// explicit settings.
func (c Config) WithDefaults() Config {
	if len(c.Mix) > 0 && c.Clients == 0 {
		for _, m := range c.Mix {
			c.Clients += m.Clients
		}
	}
	if len(c.Mix) > 0 && c.Protocol == 0 {
		c.Protocol = c.Mix[0].Protocol
	}
	if c.Gateway == "" {
		c.Gateway = FIFO
	} else if spec, err := queue.ParseSpec(string(c.Gateway)); err == nil {
		// Canonicalize: "red?min=5&gentle=true" and "red?gentle=true&min=5"
		// configure — and cache — identically. Text that does not parse is
		// left for Validate to report.
		c.Gateway = GatewayQueue(spec.String())
	}
	d := DefaultConfig(c.Clients, c.Protocol, c.Gateway)
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Duration == 0 {
		c.Duration = d.Duration
	}
	if c.ClientRateBps == 0 { //burst:floateq-ok zero means unset; take the default
		c.ClientRateBps = d.ClientRateBps
	}
	if c.ClientDelay == 0 {
		c.ClientDelay = d.ClientDelay
	}
	if c.BottleneckRateBps == 0 { //burst:floateq-ok zero means unset; take the default
		c.BottleneckRateBps = d.BottleneckRateBps
	}
	if c.BottleneckDelay == 0 {
		c.BottleneckDelay = d.BottleneckDelay
	}
	if c.BufferPackets == 0 {
		c.BufferPackets = d.BufferPackets
	}
	if c.AccessBufferPackets == 0 {
		c.AccessBufferPackets = d.AccessBufferPackets
	}
	if c.PacketSize == 0 {
		c.PacketSize = d.PacketSize
	}
	if c.AckSize == 0 {
		c.AckSize = d.AckSize
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = d.MaxWindow
	}
	if c.MeanInterval == 0 {
		c.MeanInterval = d.MeanInterval
	}
	if c.Traffic == 0 {
		c.Traffic = d.Traffic
	}
	if c.ParetoShape == 0 { //burst:floateq-ok zero means unset; take the default
		c.ParetoShape = d.ParetoShape
	}
	if c.MeanOnTime == 0 {
		c.MeanOnTime = d.MeanOnTime
	}
	if c.MeanOffTime == 0 {
		c.MeanOffTime = d.MeanOffTime
	}
	if c.Vegas == (tcp.VegasParams{}) {
		c.Vegas = d.Vegas
	}
	if c.MinRTO == 0 {
		c.MinRTO = d.MinRTO
	}
	if c.DelayedAckTimeout == 0 {
		c.DelayedAckTimeout = d.DelayedAckTimeout
	}
	return c
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Backend < PacketBackend || c.Backend > FluidBackend:
		return fmt.Errorf("config: unknown backend %d", int(c.Backend))
	case c.Clients < 1:
		return fmt.Errorf("config: clients %d < 1", c.Clients)
	case c.Protocol < UDP || c.Protocol > Sack:
		return fmt.Errorf("config: unknown protocol %d", int(c.Protocol))
	case c.Duration <= 0:
		return fmt.Errorf("config: duration %v <= 0", c.Duration)
	case c.Warmup < 0 || c.Warmup >= c.Duration:
		return fmt.Errorf("config: warmup %v outside [0, duration)", c.Warmup)
	case c.ClientRateBps <= 0 || c.BottleneckRateBps <= 0:
		return fmt.Errorf("config: link rates must be positive")
	case c.ClientDelay < 0 || c.BottleneckDelay < 0:
		return fmt.Errorf("config: link delays must be non-negative")
	case c.ClientDelayJitter < 0:
		return fmt.Errorf("config: client delay jitter %v < 0", c.ClientDelayJitter)
	case c.BufferPackets < 1:
		return fmt.Errorf("config: gateway buffer %d < 1", c.BufferPackets)
	case c.PacketSize <= 0:
		return fmt.Errorf("config: packet size %d <= 0", c.PacketSize)
	case c.MeanInterval <= 0:
		return fmt.Errorf("config: mean interval %v <= 0", c.MeanInterval)
	case c.Traffic < TrafficPoisson || c.Traffic > TrafficParetoOnOff:
		return fmt.Errorf("config: unknown traffic model %d", int(c.Traffic))
	case c.Traffic == TrafficParetoOnOff && c.ParetoShape <= 1:
		return fmt.Errorf("config: pareto shape %v <= 1 has infinite mean", c.ParetoShape)
	case c.Traffic == TrafficParetoOnOff && (c.MeanOnTime <= 0 || c.MeanOffTime <= 0):
		return fmt.Errorf("config: pareto on/off durations must be positive")
	case c.WireLossProb < 0 || c.WireLossProb >= 1:
		return fmt.Errorf("config: wire loss probability %v outside [0,1)", c.WireLossProb)
	case c.ReverseRateBps < 0:
		return fmt.Errorf("config: reverse rate %v < 0", c.ReverseRateBps)
	case c.TelemetryInterval < 0:
		return fmt.Errorf("config: telemetry interval %v < 0", c.TelemetryInterval)
	}
	for _, i := range c.TraceClients {
		if i < 1 || i > c.Clients {
			return fmt.Errorf("config: trace client %d outside [1,%d]", i, c.Clients)
		}
	}
	if len(c.Mix) > 0 {
		sum := 0
		for i, m := range c.Mix {
			if m.Protocol < UDP || m.Protocol > Sack {
				return fmt.Errorf("config: mix[%d] has unknown protocol %d", i, int(m.Protocol))
			}
			if m.Clients < 1 {
				return fmt.Errorf("config: mix[%d] has %d clients", i, m.Clients)
			}
			sum += m.Clients
		}
		if sum != c.Clients {
			return fmt.Errorf("config: mix totals %d clients but Clients = %d", sum, c.Clients)
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("config: shards %d < 0", c.Shards)
	}
	if c.Shards > 1 {
		switch {
		case c.Backend == FluidBackend:
			return fmt.Errorf("config: the fluid backend is one ODE solve and cannot shard; drop -shards or use -backend packet")
		case c.Shards > c.Clients:
			return fmt.Errorf("config: shards %d > %d hosts; use at most one shard per client", c.Shards, c.Clients)
		case c.ClientDelay <= 0 || c.BottleneckDelay <= 0:
			return fmt.Errorf("config: sharding derives its lookahead from link delays; client %v and bottleneck %v must both be positive", c.ClientDelay, c.BottleneckDelay)
		case c.CwndSampleInterval > 0 || c.TraceQueue:
			return fmt.Errorf("config: cwnd/queue tracing samples cross-shard state; run tracing with shards=1")
		}
	}
	if err := c.validateGateway(); err != nil {
		return err
	}
	if c.Backend == FluidBackend {
		if err := c.validateFluid(); err != nil {
			return err
		}
	}
	return nil
}

// validateGateway scratch-builds the configured discipline so an unknown
// name or bad parameter fails at configuration time with the registry's
// self-explaining error instead of deep inside Run. The scratch build uses
// a throwaway RNG; the real run forks the experiment's seeded stream.
func (c Config) validateGateway() error {
	spec, err := queue.ParseSpec(string(c.Gateway))
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	_, err = queue.Build(spec, queue.BuildContext{
		Capacity:       c.BufferPackets,
		PacketSize:     c.PacketSize,
		MeanPacketTime: sim.SerializationDelay(c.PacketSize, c.BottleneckRateBps),
		RNG:            func() *sim.RNG { return sim.NewRNG(0) },
	})
	return err
}

// QueueName returns the discipline's summary label: the bare name for the
// paper's disciplines ("fifo", "red", "drr"), the canonical spec text
// otherwise ("codel?target=5ms").
func (c Config) QueueName() string {
	return c.Gateway.spec().Label()
}

// clientProtocol returns the protocol run by the 0-based client index.
func (c Config) clientProtocol(i int) Protocol {
	if len(c.Mix) == 0 {
		return c.Protocol
	}
	for _, m := range c.Mix {
		if i < m.Clients {
			return m.Protocol
		}
		i -= m.Clients
	}
	return c.Protocol
}

// Label names the configuration the way the runner's progress lines do:
// "protocol/gateway n=N seed=S". Sweeps use it to tag per-run telemetry
// streams sharing one writer.
func (c Config) Label() string {
	cell := Cell{Protocol: c.Protocol, Gateway: c.Gateway}
	return fmt.Sprintf("%s n=%d seed=%d", cell, c.Clients, c.Seed)
}

// RTT returns the round-trip propagation delay 2(τc+τs) — the paper's
// c.o.v. measurement window.
func (c Config) RTT() sim.Duration {
	return 2 * (c.ClientDelay + c.BottleneckDelay)
}

// Lambda returns the per-client Poisson packet rate λ in packets/second.
func (c Config) Lambda() float64 {
	return float64(time.Second) / float64(c.MeanInterval)
}

// OfferedLoadBps returns the aggregate application offered load in bits/s.
func (c Config) OfferedLoadBps() float64 {
	return float64(c.Clients) * c.Lambda() * float64(c.PacketSize) * 8
}

// CongestionLevel classifies the offered load the way the paper's Section 3
// does: "uncongested" (well under capacity), "moderate" (intermittent
// congestion), "heavy" (offered load exceeds the bottleneck).
func (c Config) CongestionLevel() string {
	ratio := c.OfferedLoadBps() / c.BottleneckRateBps
	switch {
	case ratio < 0.25:
		return "uncongested"
	case ratio <= 1.0:
		return "moderate"
	default:
		return "heavy"
	}
}
