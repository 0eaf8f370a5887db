package core

import (
	"math"
	"testing"
	"time"

	"tcpburst/internal/trace"
)

func TestWireLossValidation(t *testing.T) {
	cfg := DefaultConfig(5, Reno, FIFO)
	cfg.WireLossProb = 1.0
	if err := cfg.Validate(); err == nil {
		t.Error("loss probability 1.0 accepted")
	}
	cfg.WireLossProb = -0.1
	if err := cfg.Validate(); err == nil {
		t.Error("negative loss probability accepted")
	}
	cfg.WireLossProb = 0.5
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid loss probability rejected: %v", err)
	}
	cfg.WireLossProb = 0
	cfg.ReverseRateBps = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative reverse rate accepted")
	}
}

func TestWireLossCountsAndRecovery(t *testing.T) {
	cfg := shortConfig(10, Reno, FIFO, 30*time.Second)
	cfg.WireLossProb = 0.01
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WireLosses == 0 {
		t.Fatal("no wire losses at p=0.01")
	}
	// Expected losses ≈ 1% of departures.
	rate := float64(res.WireLosses) / float64(res.DataSent)
	if rate < 0.005 || rate > 0.02 {
		t.Errorf("wire loss rate %.4f, want ~0.01", rate)
	}
	// TCP must still make full progress: delivered + residue ≈ generated.
	if res.Delivered < res.Generated*95/100 {
		t.Errorf("delivered %d of %d under 1%% random loss", res.Delivered, res.Generated)
	}
	if res.ForwardDrops < res.WireLosses {
		t.Errorf("ForwardDrops %d excludes wire losses %d", res.ForwardDrops, res.WireLosses)
	}
}

func TestRandomLossDegradesTCPThroughput(t *testing.T) {
	// The Lakshman–Madhow effect (paper ref [10]): TCP misreads random
	// loss as congestion, so goodput falls well below what the loss rate
	// alone would cost. The effect needs window-limited flows, so drive
	// each client at 500 pkt/s (demand cwnd ≈ 23 > advertised 20) while
	// keeping the aggregate below the bottleneck capacity.
	clean := shortConfig(5, Reno, FIFO, 30*time.Second)
	clean.MeanInterval = 2 * time.Millisecond
	res0, err := Run(clean)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	lossy := clean
	lossy.WireLossProb = 0.03
	res3, err := Run(lossy)
	if err != nil {
		t.Fatalf("Run lossy: %v", err)
	}
	if res3.Delivered >= res0.Delivered*97/100 {
		t.Errorf("3%% random loss cut delivery only from %d to %d; expected congestion-control backoff",
			res0.Delivered, res3.Delivered)
	}
	if res3.Timeouts == 0 && res3.FastRetransmits == 0 {
		t.Error("no loss recovery activity under random loss")
	}
}

func TestSACKToleratesRandomLossBetterThanReno(t *testing.T) {
	base := shortConfig(10, Reno, FIFO, 30*time.Second)
	base.WireLossProb = 0.03
	reno, err := Run(base)
	if err != nil {
		t.Fatalf("Run reno: %v", err)
	}
	base.Protocol = Sack
	sack, err := Run(base)
	if err != nil {
		t.Fatalf("Run sack: %v", err)
	}
	if sack.Timeouts >= reno.Timeouts {
		t.Errorf("sack timeouts %d >= reno %d under random loss", sack.Timeouts, reno.Timeouts)
	}
	if sack.Delivered < reno.Delivered {
		t.Errorf("sack delivered %d < reno %d under random loss", sack.Delivered, reno.Delivered)
	}
}

func TestSACKProtocolEndToEnd(t *testing.T) {
	res, err := Run(shortConfig(45, Sack, FIFO, 30*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Delivered == 0 {
		t.Fatal("no delivery")
	}
	// SACK repairs multi-loss windows without timeouts far more often
	// than Reno at the same load.
	reno, err := Run(shortConfig(45, Reno, FIFO, 30*time.Second))
	if err != nil {
		t.Fatalf("Run reno: %v", err)
	}
	if res.Timeouts >= reno.Timeouts {
		t.Errorf("sack timeouts %d >= reno %d under congestion", res.Timeouts, reno.Timeouts)
	}
}

func TestReverseBottleneckCausesAckPathDrops(t *testing.T) {
	// Shrinking the ACK path to a trickle with a tiny buffer forces ACK
	// losses — the setup for ACK-compression studies. Cumulative ACKs
	// mean TCP still progresses.
	cfg := shortConfig(20, Reno, FIFO, 30*time.Second)
	cfg.ReverseRateBps = 100e3 // 100 kbps for ~2000 ACKs/s offered
	cfg.ReverseBufferPackets = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.AckDrops == 0 {
		t.Error("no ACK drops despite a choked reverse path")
	}
	if res.Delivered == 0 {
		t.Error("no forward progress with a choked reverse path")
	}
	// Throughput is ACK-clock-limited well below the clean-path run.
	clean, err := Run(shortConfig(20, Reno, FIFO, 30*time.Second))
	if err != nil {
		t.Fatalf("Run clean: %v", err)
	}
	if res.Delivered >= clean.Delivered {
		t.Errorf("choked reverse path delivered %d >= clean %d", res.Delivered, clean.Delivered)
	}
}

func TestQueueStatsReflectLoad(t *testing.T) {
	light, err := Run(shortConfig(8, Reno, FIFO, 30*time.Second))
	if err != nil {
		t.Fatalf("Run light: %v", err)
	}
	heavy, err := Run(shortConfig(55, Reno, FIFO, 30*time.Second))
	if err != nil {
		t.Fatalf("Run heavy: %v", err)
	}
	if light.Queue.Mean >= heavy.Queue.Mean {
		t.Errorf("queue mean %.2f (light) >= %.2f (heavy)", light.Queue.Mean, heavy.Queue.Mean)
	}
	if heavy.Queue.Max > 50 {
		t.Errorf("queue max %.0f exceeds buffer 50", heavy.Queue.Max)
	}
	if heavy.Queue.P95 < heavy.Queue.Mean {
		t.Errorf("P95 %.2f below mean %.2f", heavy.Queue.P95, heavy.Queue.Mean)
	}
	if light.Queue.FullFrac > 0.01 {
		t.Errorf("light load near-full fraction %.3f, want ~0", light.Queue.FullFrac)
	}
	if heavy.Queue.FullFrac == 0 {
		t.Error("heavy load never approached a full buffer")
	}
	if math.IsNaN(heavy.Queue.Mean) || math.IsNaN(heavy.Queue.P95) {
		t.Error("NaN in queue stats")
	}
}

func TestVegasKeepsQueueShorterThanReno(t *testing.T) {
	// Paper §3.3: "TCP Vegas requires much less buffer space in the
	// gateway" — at a load where Vegas reaches its lossless equilibrium.
	reno, err := Run(shortConfig(36, Reno, FIFO, 40*time.Second))
	if err != nil {
		t.Fatalf("Run reno: %v", err)
	}
	vegas, err := Run(shortConfig(36, Vegas, FIFO, 40*time.Second))
	if err != nil {
		t.Fatalf("Run vegas: %v", err)
	}
	if vegas.Queue.P95 > float64(36)*3+1 {
		t.Errorf("vegas P95 queue %.1f exceeds N*beta bound", vegas.Queue.P95)
	}
	if vegas.Queue.FullFrac > reno.Queue.FullFrac+0.05 {
		t.Errorf("vegas near-full fraction %.3f not below reno %.3f",
			vegas.Queue.FullFrac, reno.Queue.FullFrac)
	}
}

func TestCwndSyncIndexHigherUnderHeavyLoad(t *testing.T) {
	// The paper's central mechanism: as load grows, Reno streams make
	// congestion-control decisions in lockstep. The sync index (mean
	// pairwise correlation of traced windows) must rise from uncongested
	// to heavily congested.
	runAt := func(n int) float64 {
		cfg := shortConfig(n, Reno, FIFO, 40*time.Second)
		cfg.CwndSampleInterval = 100 * time.Millisecond
		cfg.TraceClients = []int{1, n / 2, n}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%d): %v", n, err)
		}
		return res.CwndSyncIndex
	}
	light := runAt(8)
	heavy := runAt(55)
	if heavy <= light {
		t.Errorf("sync index heavy %.3f <= light %.3f; paper requires growing dependency",
			heavy, light)
	}
	if heavy < 0.05 {
		t.Errorf("heavy-load sync index %.3f suspiciously low", heavy)
	}
}

func TestCwndSyncIndexZeroWithoutTraces(t *testing.T) {
	res, err := Run(shortConfig(10, Reno, FIFO, 5*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CwndSyncIndex != 0 {
		t.Errorf("sync index %v without tracing, want 0", res.CwndSyncIndex)
	}
}

func TestClientDelayJitterValidation(t *testing.T) {
	cfg := DefaultConfig(5, Reno, FIFO)
	cfg.ClientDelayJitter = -time.Millisecond
	if err := cfg.Validate(); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestClientDelayJitterDesynchronizes(t *testing.T) {
	// Heterogeneous RTTs break the lockstep: with ±30ms of access-delay
	// spread, the traced windows decorrelate relative to identical RTTs.
	base := shortConfig(55, Reno, FIFO, 40*time.Second)
	base.CwndSampleInterval = 100 * time.Millisecond
	base.TraceClients = []int{1, 28, 55}
	uniform, err := Run(base)
	if err != nil {
		t.Fatalf("Run uniform: %v", err)
	}
	jittered := base
	jittered.ClientDelayJitter = 30 * time.Millisecond
	spread, err := Run(jittered)
	if err != nil {
		t.Fatalf("Run jittered: %v", err)
	}
	if spread.CwndSyncIndex >= uniform.CwndSyncIndex {
		t.Errorf("jittered sync %.3f >= uniform %.3f; RTT spread should desynchronize",
			spread.CwndSyncIndex, uniform.CwndSyncIndex)
	}
	if spread.Delivered == 0 {
		t.Error("no progress with jittered delays")
	}
}

func TestDRRGatewayEndToEnd(t *testing.T) {
	res, err := Run(shortConfig(50, Reno, DRR, 30*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Delivered == 0 {
		t.Fatal("no delivery through DRR gateway")
	}
	if res.Utilization < 0.9 {
		t.Errorf("utilization %.2f under heavy load, want near 1", res.Utilization)
	}
	if res.JainFairness < 0.99 {
		t.Errorf("DRR Jain fairness %.4f, want ~1", res.JainFairness)
	}
}

func TestDRRProtectsVegasFromReno(t *testing.T) {
	// Under FIFO in the high-demand regime Reno out-grabs Vegas; per-flow
	// fair queueing must equalize their shares.
	mix := []MixEntry{
		{Protocol: Reno, Clients: 5},
		{Protocol: Vegas, Clients: 5},
	}
	base := Config{
		Duration:     60 * time.Second,
		MeanInterval: 2 * time.Millisecond,
		Mix:          mix,
	}
	fifoCfg := base
	fifoCfg.Gateway = FIFO
	fifoRes, err := Run(fifoCfg)
	if err != nil {
		t.Fatalf("Run fifo: %v", err)
	}
	drrCfg := base
	drrCfg.Gateway = DRR
	drrRes, err := Run(drrCfg)
	if err != nil {
		t.Fatalf("Run drr: %v", err)
	}
	share := func(r *Result) float64 {
		return float64(r.ByProtocol[Vegas].Delivered) / float64(r.Delivered)
	}
	if share(fifoRes) >= 0.5 {
		t.Fatalf("setup: FIFO Vegas share %.3f, expected Reno dominance", share(fifoRes))
	}
	if share(drrRes) <= share(fifoRes) {
		t.Errorf("DRR Vegas share %.3f not above FIFO's %.3f", share(drrRes), share(fifoRes))
	}
	if share(drrRes) < 0.45 {
		t.Errorf("DRR Vegas share %.3f, want ~0.5 (fair)", share(drrRes))
	}
}

func TestParetoTrafficValidation(t *testing.T) {
	cfg := DefaultConfig(5, UDP, FIFO)
	cfg.Traffic = TrafficParetoOnOff
	cfg.ParetoShape = 1
	if err := cfg.Validate(); err == nil {
		t.Error("pareto shape 1 accepted")
	}
	cfg.ParetoShape = 1.5
	cfg.MeanOnTime = 0
	cfg = cfg.WithDefaults() // refills MeanOnTime
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid pareto config rejected: %v", err)
	}
	bad := DefaultConfig(5, UDP, FIFO)
	bad.Traffic = TrafficModel(99)
	if err := bad.Validate(); err == nil {
		t.Error("unknown traffic model accepted")
	}
}

func TestParetoTrafficBurstierThanPoisson(t *testing.T) {
	// The self-similarity literature's construction through our harness:
	// heavy-tailed on/off sources over UDP produce a far burstier
	// aggregate than Poisson sources at the same mean rate, visible in
	// both c.o.v. and the Hurst estimate.
	poisson, err := Run(shortConfig(20, UDP, FIFO, 60*time.Second))
	if err != nil {
		t.Fatalf("Run poisson: %v", err)
	}
	cfg := shortConfig(20, UDP, FIFO, 60*time.Second)
	cfg.Traffic = TrafficParetoOnOff
	pareto, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run pareto: %v", err)
	}
	if pareto.COV < 2*poisson.COV {
		t.Errorf("pareto cov %.4f not >> poisson %.4f", pareto.COV, poisson.COV)
	}
	if pareto.Hurst < poisson.Hurst {
		t.Errorf("pareto Hurst %.3f below poisson %.3f", pareto.Hurst, poisson.Hurst)
	}
	// Mean rate calibration: both models offer ~the same load (heavy
	// tails converge slowly; accept a broad band).
	ratio := float64(pareto.Generated) / float64(poisson.Generated)
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("pareto generated %.2fx the poisson load; rate calibration off", ratio)
	}
}

func TestParetoTrafficThroughTCP(t *testing.T) {
	cfg := shortConfig(20, Reno, FIFO, 30*time.Second)
	cfg.Traffic = TrafficParetoOnOff
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Delivered == 0 {
		t.Fatal("no delivery with pareto traffic over TCP")
	}
	if res.Delivered > res.Generated {
		t.Errorf("delivered %d > generated %d", res.Delivered, res.Generated)
	}
}

func TestPacketLogCapturesArrivalsAndDrops(t *testing.T) {
	cfg := shortConfig(50, Reno, FIFO, 20*time.Second)
	cfg.PacketLogCapacity = 5000
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.PacketLog == nil || res.PacketLog.Len() == 0 {
		t.Fatal("packet log empty")
	}
	drops := res.PacketLog.Filter(func(e trace.PacketEvent) bool {
		return e.Kind == trace.EventDrop
	})
	if len(drops) == 0 {
		t.Error("no drops logged under heavy congestion")
	}
	// Events are chronological.
	events := res.PacketLog.Events()
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("packet log out of order")
		}
	}
	// Without the option the log is absent.
	plain, err := Run(shortConfig(5, Reno, FIFO, 2*time.Second))
	if err != nil {
		t.Fatalf("Run plain: %v", err)
	}
	if plain.PacketLog != nil {
		t.Error("packet log present without capacity")
	}
}

func TestGentleREDReducesForcedDrops(t *testing.T) {
	// The gentle ramp matters when the EWMA lives above the max
	// threshold — the Vegas/RED regime, where cliff RED force-drops
	// everything that arrives. Give the buffer headroom above twice the
	// max threshold so the gentle region [maxth, 2*maxth] is reachable
	// without physical overflow; with the default 50-packet buffer the
	// ramp has only 10 packets of room and the comparison is a coin flip.
	base := shortConfig(60, Vegas, RED, 30*time.Second)
	base.BufferPackets = 100
	cliff, err := Run(base)
	if err != nil {
		t.Fatalf("Run cliff: %v", err)
	}
	gentleCfg := base
	gentleCfg.Gateway = "red?gentle=true"
	gentle, err := Run(gentleCfg)
	if err != nil {
		t.Fatalf("Run gentle: %v", err)
	}
	if cliff.RED == nil || gentle.RED == nil {
		t.Fatal("RED stats missing")
	}
	if gentle.RED.ForcedDrops >= cliff.RED.ForcedDrops {
		t.Errorf("gentle forced drops %d >= cliff %d; the ramp should absorb the cliff",
			gentle.RED.ForcedDrops, cliff.RED.ForcedDrops)
	}
	if gentle.Delivered == 0 {
		t.Fatal("no delivery with gentle RED")
	}
}

func TestDelayStatsPhysicallyBounded(t *testing.T) {
	// One-way delay = access (2ms) + bottleneck (20ms) propagation plus
	// serialization and queueing: at least ~22ms, and under heavy load
	// bounded above by propagation + a full 50-packet buffer (~35ms).
	light, err := Run(shortConfig(8, Reno, FIFO, 20*time.Second))
	if err != nil {
		t.Fatalf("Run light: %v", err)
	}
	if light.DelayMeanSec < 0.022 || light.DelayMeanSec > 0.030 {
		t.Errorf("light-load mean delay %.4fs, want ~0.022-0.030", light.DelayMeanSec)
	}
	heavy, err := Run(shortConfig(55, Reno, FIFO, 20*time.Second))
	if err != nil {
		t.Fatalf("Run heavy: %v", err)
	}
	if heavy.DelayMeanSec <= light.DelayMeanSec {
		t.Errorf("heavy delay %.4f <= light %.4f; queueing missing", heavy.DelayMeanSec, light.DelayMeanSec)
	}
	maxDelay := 0.022 + 50*8000/31e6 + 0.005
	if heavy.DelayP95Sec > maxDelay {
		t.Errorf("p95 delay %.4fs exceeds physical bound %.4fs", heavy.DelayP95Sec, maxDelay)
	}
	if heavy.DelayP95Sec < heavy.DelayMeanSec {
		t.Errorf("p95 %.4f below mean %.4f", heavy.DelayP95Sec, heavy.DelayMeanSec)
	}
}

func TestDelayMeasuredForUDPToo(t *testing.T) {
	res, err := Run(shortConfig(10, UDP, FIFO, 10*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.DelayMeanSec < 0.022 || res.DelayMeanSec > 0.030 {
		t.Errorf("UDP mean delay %.4fs, want ~0.022-0.030", res.DelayMeanSec)
	}
}
