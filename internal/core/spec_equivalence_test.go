package core

import (
	"encoding/json"
	"strings"
	"testing"

	"tcpburst/internal/runcache"
)

// TestGatewaySpecCanonicalizes checks that WithDefaults canonicalizes the
// discipline text: two spellings of one RED configuration default to the
// same Config and therefore share a run-cache key.
func TestGatewaySpecCanonicalizes(t *testing.T) {
	a := DefaultConfig(20, Reno, "red?min=5&gentle=true").WithDefaults()
	b := DefaultConfig(20, Reno, "red?gentle=true&min=5").WithDefaults()
	if a.Gateway != "red?gentle=true&min=5" {
		t.Errorf("canonical gateway = %q, want parameters sorted by key", a.Gateway)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("spellings default differently:\n%s\n%s", ja, jb)
	}
	ka, err := runcache.Key(resultCacheKind(a), a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := runcache.Key(resultCacheKind(b), b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("cache keys differ: %s vs %s", ka, kb)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("canonical config invalid: %v", err)
	}
}

// TestLegacyCacheKeysPinned pins the run-cache keys of the paper's golden
// cells. If one of these moves, previously cached results are silently
// orphaned: a change to Config's JSON must come with a cache-kind bump and
// a deliberate re-pin here.
func TestLegacyCacheKeysPinned(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{DefaultConfig(20, Reno, FIFO),
			"04f6f05d438767cbbf8a08fb6dd27a1c7e105aef657cd59ee7ccff1dc333f317"},
		{DefaultConfig(20, Reno, RED),
			"fdb9c424b2e07099719116814d042b331b37c9c42f32006f94306f5f4989db7a"},
		{DefaultConfig(20, Reno, DRR),
			"01acb193a0a30fb88f1ba6c77653d7be06a5d3994862e1c28c10897a9380a8f4"},
		{DefaultConfig(39, Vegas, "red?ecn=true"),
			"92a2ce8f1935b207e27b4692d6f156919dee98bb1dd333c75ffa8abc43f54247"},
	}
	for _, tc := range cases {
		cfg := tc.cfg.WithDefaults()
		got, err := runcache.Key(resultCacheKind(cfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: cache key %s, want pinned %s", cfg.Label(), got, tc.want)
		}
	}
}

// TestConfigValidatesSpecAtConfigTime checks that a bad spec surfaces from
// Validate with the registry's self-explaining error, not from deep inside
// a run.
func TestConfigValidatesSpecAtConfigTime(t *testing.T) {
	cases := []struct {
		spec   string
		substr string
	}{
		{"wred", "unknown discipline"},
		{"codel?targit=1ms", `unknown parameter "targit"`},
		{"tokenbucket", "rate"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(10, Reno, GatewayQueue(tc.spec))
		err := cfg.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("Validate(%q) = %v, want mention of %q", tc.spec, err, tc.substr)
		}
	}
}

// TestWithGatewayDisciplineOption checks the functional-option entry
// points: WithGateway carries spec text into the Config, and
// ParseDiscipline rejects malformed syntax at once while unknown names fail
// in NewConfig.
func TestWithGatewayDisciplineOption(t *testing.T) {
	cfg, err := NewConfig(WithClients(10), WithProtocol(Reno), WithGateway("codel?target=2ms"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Gateway != "codel?target=2ms" || cfg.QueueName() != "codel?target=2ms" {
		t.Fatalf("WithGateway: Gateway=%q QueueName=%q", cfg.Gateway, cfg.QueueName())
	}

	opt, err := ParseDiscipline("pie?ecn=true")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = NewConfig(WithClients(10), WithProtocol(Reno), opt)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.QueueName() != "pie?ecn=true" {
		t.Errorf("ParseDiscipline QueueName = %q", cfg.QueueName())
	}
	// The paper's disciplines keep their bare summary label whatever
	// their parameters.
	cfg, err = NewConfig(WithClients(10), WithProtocol(Reno), WithGateway("red?ecn=true"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.QueueName() != "red" {
		t.Errorf("red?ecn=true QueueName = %q, want red", cfg.QueueName())
	}
	// ParseDiscipline rejects malformed syntax immediately; unknown names
	// parse (any bare word is grammatical) and fail later in Validate.
	if _, err := ParseDiscipline("codel?"); err == nil {
		t.Error("ParseDiscipline accepted a dangling '?'")
	}
	if opt, err := ParseDiscipline("no-such-queue"); err != nil {
		t.Errorf("ParseDiscipline rejected a grammatical name: %v", err)
	} else if _, err := NewConfig(WithClients(10), WithProtocol(Reno), opt); err == nil {
		t.Error("NewConfig accepted an unknown discipline")
	}
}

// TestWithCellMalformedSpecErrors checks that a malformed discipline in a
// cell — user input, via burstsweep -queue — is a NewConfig error, not a
// panic.
func TestWithCellMalformedSpecErrors(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("NewConfig panicked: %v", r)
		}
	}()
	_, err := NewConfig(WithClients(10), WithCell(Cell{Protocol: Reno, Gateway: "codel?"}))
	if err == nil || !strings.Contains(err.Error(), "no parameters") {
		t.Errorf("NewConfig = %v, want the spec parse error", err)
	}
}

// TestSpecConfigRoundTripsThroughJSON checks that a registry config
// serializes and reloads with its spec intact — sweep manifests and cached
// summaries depend on it.
func TestSpecConfigRoundTripsThroughJSON(t *testing.T) {
	opt, err := ParseDiscipline("tokenbucket?burst=30&rate=3500")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewConfig(WithClients(10), WithProtocol(Reno), opt)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.QueueName() != "tokenbucket?burst=30&rate=3500" {
		t.Errorf("round-tripped QueueName = %q", back.QueueName())
	}
}
