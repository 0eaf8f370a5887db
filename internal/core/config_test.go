package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"tcpburst/internal/queue"
)

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig(20, Reno, FIFO)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.Duration != 200*time.Second {
		t.Errorf("Duration = %v, want 200s", cfg.Duration)
	}
	if cfg.BufferPackets != 50 {
		t.Errorf("BufferPackets = %d, want 50", cfg.BufferPackets)
	}
	if cfg.MaxWindow != 20 {
		t.Errorf("MaxWindow = %d, want 20", cfg.MaxWindow)
	}
	if cfg.PacketSize != 1000 {
		t.Errorf("PacketSize = %d, want 1000", cfg.PacketSize)
	}
	if red, _, _ := queue.REDSettings(queue.Spec{Name: "red"}); red.MinThreshold != 10 || red.MaxThreshold != 40 {
		t.Errorf("RED thresholds %v/%v, want 10/40", red.MinThreshold, red.MaxThreshold)
	}
	if cfg.Vegas.Alpha != 1 || cfg.Vegas.Beta != 3 || cfg.Vegas.Gamma != 1 {
		t.Errorf("Vegas params %+v, want 1/3/1", cfg.Vegas)
	}
}

func TestRTTIsRoundTripPropagation(t *testing.T) {
	cfg := DefaultConfig(1, Reno, FIFO)
	if got := cfg.RTT(); got != 44*time.Millisecond {
		t.Errorf("RTT() = %v, want 44ms = 2(2ms+20ms)", got)
	}
}

func TestLambdaAndOfferedLoad(t *testing.T) {
	cfg := DefaultConfig(38, Reno, FIFO)
	if got := cfg.Lambda(); math.Abs(got-100) > 1e-9 {
		t.Errorf("Lambda() = %v, want 100", got)
	}
	// 38 clients × 0.8 Mbps = 30.4 Mbps.
	if got := cfg.OfferedLoadBps(); math.Abs(got-30.4e6) > 1 {
		t.Errorf("OfferedLoadBps() = %v, want 30.4e6", got)
	}
}

func TestCongestionCrossoverBetween38And39(t *testing.T) {
	// The paper's regimes: uncongested < 10, moderate 10–38, heavy > 38.
	cases := map[int]string{
		5:  "uncongested",
		9:  "uncongested",
		10: "moderate",
		20: "moderate",
		38: "moderate",
		39: "heavy",
		60: "heavy",
	}
	for n, want := range cases {
		cfg := DefaultConfig(n, Reno, FIFO)
		if got := cfg.CongestionLevel(); got != want {
			t.Errorf("CongestionLevel(%d clients) = %q, want %q", n, got, want)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		substr string
	}{
		{"no clients", func(c *Config) { c.Clients = 0 }, "clients"},
		{"bad protocol", func(c *Config) { c.Protocol = Protocol(99) }, "protocol"},
		{"bad queue", func(c *Config) { c.Gateway = "bogus" }, "queue"},
		{"zero duration", func(c *Config) { c.Duration = 0 }, "duration"},
		{"warmup beyond duration", func(c *Config) { c.Warmup = time.Hour }, "warmup"},
		{"zero rate", func(c *Config) { c.ClientRateBps = -1 }, "rate"},
		{"negative delay", func(c *Config) { c.ClientDelay = -time.Second }, "delay"},
		{"zero buffer", func(c *Config) { c.BufferPackets = -1 }, "buffer"},
		{"zero packet", func(c *Config) { c.PacketSize = -1 }, "packet size"},
		{"zero interval", func(c *Config) { c.MeanInterval = -time.Second }, "interval"},
		{"trace client out of range", func(c *Config) { c.TraceClients = []int{99} }, "trace client"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(10, Reno, FIFO)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("Validate() = %v, want mention of %q", err, tc.substr)
			}
		})
	}
}

func TestWithDefaultsFillsZeroFields(t *testing.T) {
	cfg := Config{Clients: 5, Protocol: Vegas, Gateway: RED}
	full := cfg.WithDefaults()
	if err := full.Validate(); err != nil {
		t.Fatalf("WithDefaults produced invalid config: %v", err)
	}
	if full.Duration != 200*time.Second || full.MaxWindow != 20 {
		t.Errorf("defaults not applied: %+v", full)
	}
	// Explicit values survive.
	cfg.Duration = 7 * time.Second
	cfg.BufferPackets = 99
	full = cfg.WithDefaults()
	if full.Duration != 7*time.Second || full.BufferPackets != 99 {
		t.Error("explicit values overwritten by WithDefaults")
	}
}

func TestProtocolParsingRoundTrip(t *testing.T) {
	for _, p := range Protocols() {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Error("bogus protocol parsed")
	}
	for _, q := range []GatewayQueue{FIFO, RED} {
		opt, err := ParseDiscipline(q.String())
		if err != nil || BaseConfig(opt).Gateway != q {
			t.Errorf("ParseDiscipline(%q) = %v, %v", q, BaseConfig(opt).Gateway, err)
		}
	}
	if _, err := ParseDiscipline("red?"); err == nil {
		t.Error("malformed queue parsed")
	}
}

func TestProtocolTCPMapping(t *testing.T) {
	if UDP.IsTCP() {
		t.Error("UDP claims to be TCP")
	}
	for _, p := range []Protocol{Reno, RenoDelayAck, Vegas, Tahoe, NewReno} {
		if !p.IsTCP() {
			t.Errorf("%v not TCP", p)
		}
	}
	if Reno.TCPVariant() != RenoDelayAck.TCPVariant() {
		t.Error("RenoDelayAck must use the Reno congestion control")
	}
}

func TestPaperCellsMatchFigureLegends(t *testing.T) {
	cells := PaperCells()
	if len(cells) != 6 {
		t.Fatalf("PaperCells() has %d entries, want 6", len(cells))
	}
	labels := make([]string, len(cells))
	for i, c := range cells {
		labels[i] = c.String()
	}
	want := []string{"udp", "reno", "reno/red", "vegas", "vegas/red", "reno-delayack"}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("cell labels = %v, want %v", labels, want)
		}
	}
}

func TestDefaultSweepClientsIncludesCrossover(t *testing.T) {
	clients := DefaultSweepClients()
	has := func(n int) bool {
		for _, c := range clients {
			if c == n {
				return true
			}
		}
		return false
	}
	for _, n := range []int{4, 38, 39, 60} {
		if !has(n) {
			t.Errorf("sweep clients missing %d: %v", n, clients)
		}
	}
	for i := 1; i < len(clients); i++ {
		if clients[i] <= clients[i-1] {
			t.Fatalf("sweep clients not strictly increasing: %v", clients)
		}
	}
}
