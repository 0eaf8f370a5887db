package core

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPlanShardsPlacement(t *testing.T) {
	// place builds the dumbbell at K shards and returns the gateway,
	// server and client shards (node order: gateway, server, clients).
	place := func(k int) (gw, srv int, client []int) {
		t.Helper()
		cfg := DefaultConfig(10, Reno, FIFO).WithDefaults()
		cfg.Shards = k
		g := dumbbell(cfg)
		if _, err := build(cfg, g); err != nil {
			t.Fatalf("build(K=%d): %v", k, err)
		}
		for _, nd := range g.nodes[2:] {
			client = append(client, nd.shard)
		}
		return g.nodes[0].shard, g.nodes[1].shard, client
	}

	if gw, srv, client := place(0); gw != 0 || srv != 0 || client[9] != 0 {
		t.Errorf("serial placement = %d/%d/%v, want everything on shard 0", gw, srv, client)
	}

	gw, srv, client := place(2)
	if gw != 0 || srv != 0 {
		t.Errorf("K=2: gateway/server on %d/%d, want colocated on 0", gw, srv)
	}
	for i, s := range client {
		if s != 1 {
			t.Fatalf("K=2: client %d on shard %d, want 1", i, s)
		}
	}

	const k = 5
	gw, srv, client = place(k)
	if gw != 0 || srv != 1 {
		t.Errorf("K=5: gateway/server on %d/%d, want 0/1", gw, srv)
	}
	seen := make(map[int]int)
	prev := 2
	for i, s := range client {
		if s < 2 || s >= k {
			t.Fatalf("K=5: client %d on shard %d, outside client shards [2,%d)", i, s, k)
		}
		if s < prev {
			t.Fatalf("K=5: client blocks not contiguous at client %d", i)
		}
		prev = s
		seen[s]++
	}
	for s := 2; s < k; s++ {
		if seen[s] == 0 {
			t.Errorf("K=5: client shard %d owns no clients", s)
		}
	}
}

func TestShardsValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative", func(c *Config) { c.Shards = -1 }, "< 0"},
		{"fluid", func(c *Config) { c.Shards = 2; c.Backend = FluidBackend }, "fluid"},
		{"too many", func(c *Config) { c.Shards = 64 }, "hosts"},
		{"cwnd tracing", func(c *Config) {
			c.Shards = 2
			c.CwndSampleInterval = 10 * time.Millisecond
		}, "tracing"},
		{"queue tracing", func(c *Config) { c.Shards = 2; c.TraceQueue = true }, "tracing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(8, Reno, FIFO)
			cfg.Duration = time.Second
			tc.mut(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatalf("Run accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Sharded telemetry must merge to the serial stream: same columns, same
// tick grid, same values — except sim.events, which honestly reports the
// extra per-shard sampler events. The registry export (counters and
// histograms summed across shards) must match serial exactly.
func TestShardedTelemetryMatchesSerial(t *testing.T) {
	run := func(shards int) *Result {
		t.Helper()
		cfg := DefaultConfig(16, Reno, FIFO)
		cfg.Duration = 2 * time.Second
		cfg.TelemetryInterval = 100 * time.Millisecond
		cfg.Shards = shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(shards=%d): %v", shards, err)
		}
		if res.TelemetryRing == nil {
			t.Fatalf("Run(shards=%d): no telemetry ring", shards)
		}
		return res
	}
	serial, sharded := run(1), run(3)

	sr, hr := serial.TelemetryRing, sharded.TelemetryRing
	if !reflect.DeepEqual(sr.Fields(), hr.Fields()) {
		t.Fatalf("field sets differ:\nserial:  %v\nsharded: %v", sr.Fields(), hr.Fields())
	}
	if sr.Len() != hr.Len() {
		t.Fatalf("row counts differ: serial %d, sharded %d", sr.Len(), hr.Len())
	}
	if serial.TelemetryRecords != sharded.TelemetryRecords {
		t.Errorf("record counts differ: serial %d, sharded %d",
			serial.TelemetryRecords, sharded.TelemetryRecords)
	}
	events := sr.FieldIndex("sim.events")
	if events < 0 {
		t.Fatal("sim.events column missing")
	}
	for i := 0; i < sr.Len(); i++ {
		st, srow := sr.At(i)
		ht, hrow := hr.At(i)
		if st != ht { //burst:floateq-ok identical tick grids produce identical float timestamps
			t.Fatalf("row %d: tick %v vs %v", i, st, ht)
		}
		for j := range srow {
			if j == events {
				continue
			}
			if srow[j] != hrow[j] { //burst:floateq-ok merged shard columns must be bit-identical to serial
				t.Errorf("row %d, column %s: serial %v, sharded %v",
					i, sr.Fields()[j], srow[j], hrow[j])
			}
		}
	}

	// The export snapshots the last sampled value of every gauge;
	// sim.events again differs by the extra sampler pops, nothing else may.
	se, he := *serial.Telemetry, *sharded.Telemetry
	delete(se.Gauges, "sim.events")
	delete(he.Gauges, "sim.events")
	if !reflect.DeepEqual(se, he) {
		t.Errorf("registry exports differ:\nserial:  %+v\nsharded: %+v", se, he)
	}
}
