package core

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// shortConfig returns a paper config shrunk to a test-friendly duration.
func shortConfig(n int, p Protocol, q GatewayQueue, d time.Duration) Config {
	cfg := DefaultConfig(n, p, q)
	cfg.Duration = d
	return cfg
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig(0, Reno, FIFO)
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted 0 clients")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(shortConfig(10, Reno, FIFO, 20*time.Second))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.COV != b.COV {
		t.Errorf("COV differs across identical runs: %v vs %v", a.COV, b.COV)
	}
	if a.Delivered != b.Delivered || a.DataSent != b.DataSent {
		t.Errorf("throughput differs: %d/%d vs %d/%d", a.Delivered, a.DataSent, b.Delivered, b.DataSent)
	}
	if a.Timeouts != b.Timeouts || a.FastRetransmits != b.FastRetransmits {
		t.Errorf("retransmission counters differ")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := shortConfig(10, Reno, FIFO, 20*time.Second)
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Generated == b.Generated && a.COV == b.COV {
		t.Error("different seeds produced identical traffic")
	}
}

func TestUDPMatchesAnalyticPoissonCOV(t *testing.T) {
	res, err := Run(shortConfig(20, UDP, FIFO, 60*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.AnalyticCOV == 0 {
		t.Fatal("analytic c.o.v. is zero")
	}
	ratio := res.COV / res.AnalyticCOV
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("UDP c.o.v. %.4f vs analytic %.4f (ratio %.2f), want within 10%%",
			res.COV, res.AnalyticCOV, ratio)
	}
	if res.LossPct != 0 {
		t.Errorf("uncongested UDP lost %.3f%%", res.LossPct)
	}
}

func TestUncongestedTCPMatchesPoisson(t *testing.T) {
	// Below the congestion onset TCP does not modulate the traffic
	// (paper §3.2 case 1).
	for _, p := range []Protocol{Reno, Vegas} {
		res, err := Run(shortConfig(8, p, FIFO, 60*time.Second))
		if err != nil {
			t.Fatalf("Run(%v): %v", p, err)
		}
		ratio := res.COV / res.AnalyticCOV
		if ratio < 0.85 || ratio > 1.25 {
			t.Errorf("%v uncongested c.o.v. ratio %.2f, want ~1", p, ratio)
		}
		if res.Timeouts != 0 {
			t.Errorf("%v uncongested run had %d timeouts", p, res.Timeouts)
		}
	}
}

func TestHeavyCongestionRenoBurstier(t *testing.T) {
	// Paper §3.2 case 3: under heavy congestion Reno's c.o.v. rises far
	// above the aggregated Poisson value.
	res, err := Run(shortConfig(50, Reno, FIFO, 60*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.COV < 1.5*res.AnalyticCOV {
		t.Errorf("heavy Reno c.o.v. %.4f vs analytic %.4f: modulation missing",
			res.COV, res.AnalyticCOV)
	}
	if res.LossPct == 0 || res.Timeouts == 0 {
		t.Errorf("heavy congestion without loss (%f%%) or timeouts (%d)", res.LossPct, res.Timeouts)
	}
}

func TestVegasSmootherThanRenoUnderHeavyLoad(t *testing.T) {
	// The paper's headline contrast (Figure 2, §3.3).
	reno, err := Run(shortConfig(50, Reno, FIFO, 60*time.Second))
	if err != nil {
		t.Fatalf("Run reno: %v", err)
	}
	vegas, err := Run(shortConfig(50, Vegas, FIFO, 60*time.Second))
	if err != nil {
		t.Fatalf("Run vegas: %v", err)
	}
	if vegas.COV >= reno.COV {
		t.Errorf("vegas c.o.v. %.4f >= reno %.4f; paper requires Vegas smoother",
			vegas.COV, reno.COV)
	}
	// Vegas also sees far fewer coarse timeouts relative to recoveries.
	if vegas.TimeoutDupAckRatio >= reno.TimeoutDupAckRatio {
		t.Errorf("vegas timeout ratio %.3f >= reno %.3f (Figure 13 ordering)",
			vegas.TimeoutDupAckRatio, reno.TimeoutDupAckRatio)
	}
}

func TestREDWorsensCOVAndThroughput(t *testing.T) {
	// Paper §3.5: plain Reno and Vegas outperform their RED counterparts
	// in c.o.v. and throughput under heavy congestion.
	for _, p := range []Protocol{Reno, Vegas} {
		plain, err := Run(shortConfig(60, p, FIFO, 60*time.Second))
		if err != nil {
			t.Fatalf("Run %v/fifo: %v", p, err)
		}
		red, err := Run(shortConfig(60, p, RED, 60*time.Second))
		if err != nil {
			t.Fatalf("Run %v/red: %v", p, err)
		}
		if red.COV <= plain.COV {
			t.Errorf("%v: RED c.o.v. %.4f <= FIFO %.4f, paper requires RED burstier",
				p, red.COV, plain.COV)
		}
		if red.Delivered >= plain.Delivered {
			t.Errorf("%v: RED throughput %d >= FIFO %d, paper requires RED worse",
				p, red.Delivered, plain.Delivered)
		}
	}
}

func TestVegasREDHighestLoss(t *testing.T) {
	// Paper §3.5 ("interestingly..."): Vegas/RED loses more than either
	// Reno implementation and more than plain Vegas.
	duration := 60 * time.Second
	vegasRED, err := Run(shortConfig(60, Vegas, RED, duration))
	if err != nil {
		t.Fatalf("Run vegas/red: %v", err)
	}
	vegas, err := Run(shortConfig(60, Vegas, FIFO, duration))
	if err != nil {
		t.Fatalf("Run vegas: %v", err)
	}
	reno, err := Run(shortConfig(60, Reno, FIFO, duration))
	if err != nil {
		t.Fatalf("Run reno: %v", err)
	}
	renoRED, err := Run(shortConfig(60, Reno, RED, duration))
	if err != nil {
		t.Fatalf("Run reno/red: %v", err)
	}
	if vegasRED.LossPct <= vegas.LossPct {
		t.Errorf("vegas/red loss %.2f%% <= vegas %.2f%%", vegasRED.LossPct, vegas.LossPct)
	}
	if vegasRED.LossPct <= reno.LossPct || vegasRED.LossPct <= renoRED.LossPct {
		t.Errorf("vegas/red loss %.2f%% not above reno %.2f%% / reno-red %.2f%%",
			vegasRED.LossPct, reno.LossPct, renoRED.LossPct)
	}
	// The mechanism: Vegas pushes the RED average above its max
	// threshold, so a large share of drops are forced, not probabilistic.
	// (Over the paper's full 200 s, forced drops dominate outright.)
	if vegasRED.RED == nil {
		t.Fatal("RED stats missing")
	}
	total := vegasRED.RED.ForcedDrops + vegasRED.RED.EarlyDrops
	if total == 0 || float64(vegasRED.RED.ForcedDrops)/float64(total) < 0.25 {
		t.Errorf("vegas/red forced drops %d of %d; expected a substantial forced share",
			vegasRED.RED.ForcedDrops, total)
	}
}

func TestThroughputSaturatesAtBottleneck(t *testing.T) {
	res, err := Run(shortConfig(50, Reno, FIFO, 60*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Delivered goodput cannot exceed capacity: 31 Mbps / 8000 bits per
	// packet × 60 s = 232500 packets.
	max := uint64(31e6 / 8000 * 60)
	if res.Delivered > max {
		t.Errorf("delivered %d exceeds line rate limit %d", res.Delivered, max)
	}
	if res.Utilization > 1.001 {
		t.Errorf("utilization %.3f > 1", res.Utilization)
	}
	if res.Utilization < 0.9 {
		t.Errorf("utilization %.3f under heavy load, want near 1", res.Utilization)
	}
}

func TestPacketConservation(t *testing.T) {
	// Everything generated is delivered, dropped, queued, in flight, or
	// still waiting in a send buffer — nothing is created or destroyed.
	for _, p := range []Protocol{UDP, Reno, Vegas, RenoDelayAck} {
		res, err := Run(shortConfig(45, p, FIFO, 30*time.Second))
		if err != nil {
			t.Fatalf("Run(%v): %v", p, err)
		}
		if res.Delivered > res.Generated {
			t.Errorf("%v: delivered %d > generated %d", p, res.Delivered, res.Generated)
		}
		if res.DataSent < res.Delivered {
			t.Errorf("%v: sent %d < delivered %d", p, res.DataSent, res.Delivered)
		}
		// Unaccounted-for = generated − delivered − dropped must be a
		// small residue (in flight + backlog at the horizon).
		residue := int64(res.Generated) - int64(res.Delivered) - int64(res.ForwardDrops)
		if p == UDP && residue < 0 {
			t.Errorf("udp: negative residue %d", residue)
		}
		if p != UDP && residue < 0 {
			// TCP retransmits mean drops can exceed generated-delivered
			// only if a packet is dropped more than once... which means
			// drops count transmissions. Residue can be negative only
			// by the number of retransmissions.
			rtx := int64(res.DataSent - res.Generated)
			if -residue > rtx {
				t.Errorf("%v: residue %d more negative than retransmissions %d",
					p, residue, rtx)
			}
		}
	}
}

func TestPerFlowResultsConsistent(t *testing.T) {
	res, err := Run(shortConfig(12, Reno, FIFO, 20*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Flows) != 12 {
		t.Fatalf("flows = %d, want 12", len(res.Flows))
	}
	var gen, del uint64
	for i, f := range res.Flows {
		if f.Client != i+1 {
			t.Errorf("flow %d has client id %d", i, f.Client)
		}
		gen += f.Generated
		del += f.Delivered
	}
	if gen != res.Generated || del != res.Delivered {
		t.Errorf("per-flow sums %d/%d != totals %d/%d", gen, del, res.Generated, res.Delivered)
	}
}

func TestFairnessNearOneWhenUncongested(t *testing.T) {
	res, err := Run(shortConfig(10, Reno, FIFO, 30*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.JainFairness < 0.99 {
		t.Errorf("uncongested Jain index %.4f, want ~1", res.JainFairness)
	}
}

func TestCwndTracing(t *testing.T) {
	cfg := shortConfig(10, Reno, FIFO, 10*time.Second)
	cfg.CwndSampleInterval = 100 * time.Millisecond
	cfg.TraceQueue = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Default trace selection: clients 1, N/2, N.
	if len(res.CwndTraces) != 3 {
		t.Fatalf("cwnd traces = %d, want 3", len(res.CwndTraces))
	}
	wantNames := map[string]bool{"client1": true, "client5": true, "client10": true}
	for _, s := range res.CwndTraces {
		if !wantNames[s.Name] {
			t.Errorf("unexpected trace %q", s.Name)
		}
		// 10s at 100ms = 101 samples (inclusive boundaries).
		if len(s.Samples) < 95 || len(s.Samples) > 105 {
			t.Errorf("trace %q has %d samples", s.Name, len(s.Samples))
		}
		for _, smp := range s.Samples {
			if smp.Value < 1 || smp.Value > 25 {
				t.Errorf("trace %q sample %v outside sane cwnd range", s.Name, smp.Value)
			}
		}
	}
	if res.QueueTrace == nil || len(res.QueueTrace.Samples) == 0 {
		t.Error("queue trace missing")
	}
	for _, smp := range res.QueueTrace.Samples {
		if smp.Value < 0 || smp.Value > 50 {
			t.Errorf("queue length %v outside [0,50]", smp.Value)
		}
	}
}

func TestExplicitTraceClients(t *testing.T) {
	cfg := shortConfig(20, Vegas, FIFO, 5*time.Second)
	cfg.CwndSampleInterval = 100 * time.Millisecond
	cfg.TraceClients = []int{1, 10, 20}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.CwndTraces) != 3 {
		t.Fatalf("traces = %d, want 3", len(res.CwndTraces))
	}
	if res.CwndTraces[1].Name != "client10" {
		t.Errorf("trace[1] = %q, want client10", res.CwndTraces[1].Name)
	}
}

func TestUDPHasNoCwndTraces(t *testing.T) {
	cfg := shortConfig(5, UDP, FIFO, 5*time.Second)
	cfg.CwndSampleInterval = 100 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.CwndTraces) != 0 {
		t.Errorf("UDP produced %d cwnd traces", len(res.CwndTraces))
	}
}

func TestWarmupDiscardsEarlyWindows(t *testing.T) {
	base := shortConfig(20, Reno, FIFO, 30*time.Second)
	full, err := Run(base)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	warm := base
	warm.Warmup = 10 * time.Second
	trimmed, err := Run(warm)
	if err != nil {
		t.Fatalf("Run warm: %v", err)
	}
	if len(trimmed.WindowCounts) >= len(full.WindowCounts) {
		t.Errorf("warmup did not trim windows: %d vs %d",
			len(trimmed.WindowCounts), len(full.WindowCounts))
	}
	expected := len(full.WindowCounts) - int(warm.Warmup/warm.RTT())
	if math.Abs(float64(len(trimmed.WindowCounts)-expected)) > 2 {
		t.Errorf("trimmed windows = %d, want ~%d", len(trimmed.WindowCounts), expected)
	}
}

func TestMeanWindowCountMatchesLoad(t *testing.T) {
	res, err := Run(shortConfig(20, UDP, FIFO, 60*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 20 clients × 100 pkt/s × 44 ms = 88 expected arrivals per window.
	if res.MeanWindowCount < 80 || res.MeanWindowCount > 96 {
		t.Errorf("mean window count %.1f, want ~88", res.MeanWindowCount)
	}
}

func TestAckPathCleanUnderDefaults(t *testing.T) {
	res, err := Run(shortConfig(40, Reno, FIFO, 30*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.AckDrops != 0 {
		t.Errorf("ACK drops = %d; the paper's reverse path is uncongested", res.AckDrops)
	}
}

func TestECNExtensionReducesLoss(t *testing.T) {
	base := shortConfig(50, Reno, RED, 30*time.Second)
	plain, err := Run(base)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ecn := base
	ecn.Gateway = "red?ecn=true"
	marked, err := Run(ecn)
	if err != nil {
		t.Fatalf("Run ecn: %v", err)
	}
	if marked.RED == nil || marked.RED.Marks == 0 {
		t.Fatal("ECN run produced no marks")
	}
	if marked.RED.EarlyDrops != 0 {
		t.Errorf("ECN run early-dropped %d packets", marked.RED.EarlyDrops)
	}
	// Marking replaces early drops, so total loss must not increase.
	if marked.LossPct > plain.LossPct*1.1 {
		t.Errorf("ECN loss %.2f%% vs drop-RED %.2f%%", marked.LossPct, plain.LossPct)
	}
}

// TestProtocolQueueGridInvariants smoke-tests every protocol × discipline
// × load combination against the universal invariants of a conservative
// network: nothing is created from nothing, utilization is bounded by
// capacity, and every statistic stays in its domain.
func TestProtocolQueueGridInvariants(t *testing.T) {
	for _, p := range Protocols() {
		for _, q := range []GatewayQueue{FIFO, RED, DRR} {
			for _, n := range []int{10, 45} {
				name := p.String() + "/" + q.String() + "/" + itoa(n)
				t.Run(name, func(t *testing.T) {
					res, err := Run(shortConfig(n, p, q, 8*time.Second))
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if res.Delivered > res.Generated {
						t.Errorf("delivered %d > generated %d", res.Delivered, res.Generated)
					}
					if res.DataSent < res.Delivered {
						t.Errorf("sent %d < delivered %d", res.DataSent, res.Delivered)
					}
					if res.Utilization < 0 || res.Utilization > 1.001 {
						t.Errorf("utilization %v out of range", res.Utilization)
					}
					if res.COV < 0 || res.AnalyticCOV <= 0 {
						t.Errorf("cov %v / analytic %v out of range", res.COV, res.AnalyticCOV)
					}
					if res.JainFairness <= 0 || res.JainFairness > 1.0000001 {
						t.Errorf("fairness %v out of range", res.JainFairness)
					}
					if res.LossPct < 0 || res.LossPct > 100 {
						t.Errorf("loss %v out of range", res.LossPct)
					}
					if res.Queue.Mean < 0 || res.Queue.Max > float64(res.Config.BufferPackets) {
						t.Errorf("queue stats out of range: %+v", res.Queue)
					}
					if res.Hurst < 0 || res.Hurst > 1 {
						t.Errorf("hurst %v out of range", res.Hurst)
					}
				})
			}
		}
	}
}

// itoa avoids importing strconv in just one test helper call site.
func itoa(n int) string {
	return fmt.Sprintf("%d", n)
}
