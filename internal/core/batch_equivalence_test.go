package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"tcpburst/internal/telemetry"
)

// TestBatchingMatchesUnbatched is the burst-train determinism contract:
// coalesced delivery, the idle-FIFO bypass, lazy endpoint timers, and
// the overprovisioned-link serialization pipeline must not change a
// single bit of any result. Every paper cell runs at several client
// counts with batching on and off, and the full summaries are compared
// byte for byte. This is the same contract the golden-digest table pins
// against history; here it is pinned against the per-packet executor
// directly, so a coalescing bug cannot hide behind a golden refresh.
func TestBatchingMatchesUnbatched(t *testing.T) {
	if testing.Short() {
		t.Skip("full-cell equivalence matrix is slow")
	}
	clientCounts := []int{20, 39, 60}
	// SACK rides along beyond the paper cells: its ACK-clocked bursts
	// after recovery produce the longest trains of any protocol.
	cells := append(PaperCells(), Cell{Protocol: Sack, Gateway: FIFO})
	for _, cell := range cells {
		for _, n := range clientCounts {
			cell, n := cell, n
			t.Run(fmt.Sprintf("%s/n%d", cell, n), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(n, cell.Protocol, cell.Gateway)
				cfg.Duration = 2 * time.Second
				compareBatchedUnbatched(t, cfg)
			})
		}
	}
}

// TestBatchingMatchesUnbatchedPareto covers the regime the batching
// work is tuned for: heavy-tailed on/off sources bursting at access
// line rate, where trains grow longest and the serialization pipeline
// is hottest. A divergence that only appears under long trains would
// escape the Poisson cells above.
func TestBatchingMatchesUnbatchedPareto(t *testing.T) {
	if testing.Short() {
		t.Skip("pareto equivalence run is slow")
	}
	cfg := DefaultConfig(60, Reno, RED)
	cfg.Duration = 5 * time.Second
	cfg.Traffic = TrafficParetoOnOff
	cfg.BufferPackets = 20
	// In-burst spacing equals the access serialization time, so each
	// on-period leaves the client as one back-to-back train.
	cfg.MeanOnTime = 10 * time.Millisecond
	cfg.MeanOffTime = 90 * time.Millisecond
	compareBatchedUnbatched(t, cfg)
}

// TestBatchingShardedParetoBursts pins the shard-edge train split: under
// line-rate Pareto bursts the wire trains regularly straddle the window
// barrier, and the coalesced run must stay byte-identical both to the
// serial schedule and to the per-event executor at every shard count.
func TestBatchingShardedParetoBursts(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded pareto equivalence run is slow")
	}
	base := DefaultConfig(60, Reno, FIFO)
	base.Duration = 5 * time.Second
	base.Traffic = TrafficParetoOnOff
	base.BufferPackets = 20
	base.MeanOnTime = 10 * time.Millisecond
	base.MeanOffTime = 90 * time.Millisecond
	run := func(shards int, disable bool) []byte {
		t.Helper()
		cfg := base
		cfg.Shards = shards
		cfg.DisableBatching = disable
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(shards=%d, disable=%v): %v", shards, disable, err)
		}
		s := res.Summary()
		s.SchemaVersion = 0
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal summary: %v", err)
		}
		return raw
	}
	want := string(run(1, true)) // serial per-event reference
	for _, shards := range []int{1, 2, 4} {
		if got := string(run(shards, false)); got != want {
			t.Errorf("batched shards=%d diverges from serial per-event run:\nwant: %s\ngot:  %s",
				shards, want, got)
		}
	}
}

// TestBatchingMatchesUnbatchedBacklogged covers lazy arrivals where they
// act: overloaded cells whose senders stay backlogged, so sources go
// dormant, are caught up on every ACK and timeout, and re-arm whenever a
// window opens wide enough to drain the buffer.
func TestBatchingMatchesUnbatchedBacklogged(t *testing.T) {
	if testing.Short() {
		t.Skip("overload equivalence cells are slow")
	}
	pareto := overloadConfig(Reno, RED)
	pareto.Traffic = TrafficParetoOnOff
	pareto.MeanOnTime = 10 * time.Millisecond
	pareto.MeanOffTime = 20 * time.Millisecond
	cells := map[string]Config{
		"reno/fifo":        overloadConfig(Reno, FIFO),
		"vegas/red":        overloadConfig(Vegas, RED),
		"pareto/reno/red":  pareto,
		"sack/fifo/jitter": withJitter(overloadConfig(Sack, FIFO)),
	}
	for name, cfg := range cells {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			batched, unbatched := compareBatchedUnbatched(t, cfg)
			requireElided(t, batched, unbatched)
		})
	}
}

// TestBatchingMatchesUnbatchedTelemetry streams telemetry from an
// overloaded cell with batching on and off and compares the streams byte
// for byte: every tick must see the caught-up app.generated count and the
// credited sim.events count.
//
// The cell keeps its access and reverse buffers below the serialization
// pipeline's provisioning guarantee. A pipelined link credits each elided
// serialize-done event when the packet is delivered, not at its own
// instant, so mid-run sim.events samples lag the per-event count by the
// packets in propagation (the final SimEvents is exact); that would mask
// what this test pins.
func TestBatchingMatchesUnbatchedTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("overload telemetry equivalence is slow")
	}
	run := func(disable bool) (string, *Result) {
		var stream bytes.Buffer
		cfg := overloadConfig(Reno, FIFO)
		cfg.AccessBufferPackets = 15
		cfg.Duration = time.Second
		cfg.TelemetryInterval = 10 * time.Millisecond
		cfg.TelemetrySink = telemetry.NewJSONL(&stream)
		cfg.DisableBatching = disable
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(disable=%v): %v", disable, err)
		}
		return stream.String(), res
	}
	batched, bres := run(false)
	unbatched, ures := run(true)
	requireElided(t, bres, ures)
	if batched != unbatched {
		bl, ul := strings.Split(batched, "\n"), strings.Split(unbatched, "\n")
		for i := range bl {
			if i < len(ul) && bl[i] != ul[i] {
				t.Errorf("telemetry streams differ at row %d:\nbatched:   %s\nunbatched: %s", i, bl[i], ul[i])
				break
			}
		}
	}
	if !strings.Contains(batched, "app.generated") {
		t.Errorf("stream lacks app.generated")
	}
}

// TestBatchingShardedOverload replays an overloaded cell on two shards:
// sources live on the client shard and catch up there, and the result
// must match the serial per-event run.
func TestBatchingShardedOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded overload replay is slow")
	}
	serial := overloadConfig(Reno, FIFO)
	serial.DisableBatching = true
	want, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	sharded := overloadConfig(Reno, FIFO)
	sharded.Shards = 2
	got, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	requireElided(t, got, want)
	if w, g := summaryJSON(t, want), summaryJSON(t, got); w != g {
		t.Errorf("2-shard batched run diverges from serial per-event run:\nwant: %s\ngot:  %s", w, g)
	}
}

// overloadConfig is the equivalence matrix's backlogged regime: 200
// clients at a 1 ms mean interval, about 50x the bottleneck.
func overloadConfig(p Protocol, q GatewayQueue) Config {
	cfg := DefaultConfig(200, p, q)
	cfg.MeanInterval = time.Millisecond
	cfg.Duration = 2 * time.Second
	return cfg
}

// withJitter spreads the clients' access delays so their ACKs stop
// arriving in lockstep.
func withJitter(cfg Config) Config {
	cfg.ClientDelayJitter = 5 * time.Millisecond
	return cfg
}

// requireElided checks that lazy sources actually went dormant in the
// batched run and never in the per-event one.
func requireElided(t *testing.T, batched, unbatched *Result) {
	t.Helper()
	if batched.ElidedArrivals == 0 {
		t.Error("batched run elided no arrivals: the cell never exercised dormant sources")
	}
	if unbatched.ElidedArrivals != 0 {
		t.Errorf("per-event run elided %d arrivals", unbatched.ElidedArrivals)
	}
}

func summaryJSON(t *testing.T, r *Result) string {
	t.Helper()
	s := r.Summary()
	s.SchemaVersion = 0
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal summary: %v", err)
	}
	return string(raw)
}

func compareBatchedUnbatched(t *testing.T, cfg Config) (batchedRes, unbatchedRes *Result) {
	t.Helper()
	batched := cfg
	batched.DisableBatching = false
	batchedRes, err := Run(batched)
	if err != nil {
		t.Fatalf("batched run: %v", err)
	}
	unbatched := cfg
	unbatched.DisableBatching = true
	unbatchedRes, err = Run(unbatched)
	if err != nil {
		t.Fatalf("unbatched run: %v", err)
	}

	batchedSum, err := json.Marshal(batchedRes.Summary())
	if err != nil {
		t.Fatalf("marshal batched summary: %v", err)
	}
	unbatchedSum, err := json.Marshal(unbatchedRes.Summary())
	if err != nil {
		t.Fatalf("marshal unbatched summary: %v", err)
	}
	if string(batchedSum) != string(unbatchedSum) {
		t.Errorf("batched and unbatched summaries differ:\nbatched:   %s\nunbatched: %s",
			batchedSum, unbatchedSum)
	}
	return batchedRes, unbatchedRes
}

// TestBatchingMatchesUnbatchedParkingLot extends the contract to the
// two-hop topology, whose gateway-to-gateway links and cross-traffic sinks
// exercise routes the dumbbell does not.
func TestBatchingMatchesUnbatchedParkingLot(t *testing.T) {
	base := DefaultConfig(1, Reno, FIFO)
	base.Duration = 2 * time.Second
	mk := func(disable bool) ChainConfig {
		b := base
		b.DisableBatching = disable
		return ChainConfig{
			LongClients: 4, Hop1Clients: 3, Hop2Clients: 3,
			Protocol: Reno, Gateway: FIFO,
			Duration: 2 * time.Second,
			Base:     b,
		}
	}
	batched, bnet, err := runParkingLot(context.Background(), mk(false))
	if err != nil {
		t.Fatalf("batched run: %v", err)
	}
	unbatched, unet, err := runParkingLot(context.Background(), mk(true))
	if err != nil {
		t.Fatalf("unbatched run: %v", err)
	}
	// Equal results prove nothing if batching never engaged: the batched
	// run must file fewer scheduler ops, and its TCP client links must
	// pipeline serialization.
	if bnet.schedOps >= unet.schedOps {
		t.Errorf("batched run filed %d scheduler ops, unbatched %d; want fewer", bnet.schedOps, unet.schedOps)
	}
	pipelined := 0
	for _, l := range bnet.links {
		if l.Pipelined() && l.Stats().Departures > 0 {
			pipelined++
		}
	}
	if pipelined == 0 {
		t.Error("no parking-lot link ran pipelined")
	}
	// Blank out the configs (they differ in the debug flag by design).
	batched.Config = ChainConfig{}
	unbatched.Config = ChainConfig{}
	bj, err := json.Marshal(batched)
	if err != nil {
		t.Fatalf("marshal batched: %v", err)
	}
	uj, err := json.Marshal(unbatched)
	if err != nil {
		t.Fatalf("marshal unbatched: %v", err)
	}
	if string(bj) != string(uj) {
		t.Errorf("parking-lot batched and unbatched results differ:\nbatched:   %s\nunbatched: %s", bj, uj)
	}
}
