package main

import (
	"errors"
	"testing"
	"time"

	"tcpburst/internal/core"
)

// smallResult runs a short packet experiment to check the gate against.
func smallResult(t *testing.T) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig(8, core.Reno, core.FIFO)
	cfg.Duration = 2 * time.Second
	r, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.Delivered == 0 || len(r.Flows) != 8 {
		t.Fatalf("degenerate result: delivered %d, %d flows", r.Delivered, len(r.Flows))
	}
	return r
}

func mustDigest(t *testing.T, r *core.Result) string {
	t.Helper()
	d, err := digest(r)
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	return d
}

func TestGatePassesPinnedResult(t *testing.T) {
	r := smallResult(t)
	g := newGate([]string{mustDigest(t, r)})
	g.pass("main", 1, []*core.Result{r}, nil, true)
	g.pass("main", 1, []*core.Result{r}, nil, true)
	if !g.ok() || g.attempted != 2 {
		t.Fatalf("attempted %d, failed %d: %v", g.attempted, g.failed, g.errs)
	}
}

func TestGateFailsPerturbedDigest(t *testing.T) {
	r := smallResult(t)
	d := []byte(mustDigest(t, r))
	d[0] ^= 1
	g := newGate([]string{string(d)})
	g.pass("main", 1, []*core.Result{r}, nil, true)
	if g.failed != 1 {
		t.Fatalf("a perturbed pinned digest counted %d failures, want 1", g.failed)
	}
}

func TestGateFailsDigestThatChangesBetweenRepetitions(t *testing.T) {
	r := smallResult(t)
	g := newGate(nil)
	g.pass("setup", 1, []*core.Result{r}, nil, true)
	changed := *r
	changed.COV += 1e-9
	g.pass("setup", 1, []*core.Result{&changed}, nil, true)
	if g.failed != 1 || g.attempted != 2 {
		t.Fatalf("attempted %d, failed %d, want 2 and 1", g.attempted, g.failed)
	}
}

func TestGateFailsBrokenIdentities(t *testing.T) {
	r := smallResult(t)
	for name, breakIt := range map[string]func(*core.Result){
		"per-flow sum": func(r *core.Result) {
			r.Flows = append([]core.FlowResult(nil), r.Flows...)
			r.Flows[0].Delivered++
		},
		"delivered above generated":     func(r *core.Result) { r.Delivered = r.Generated + 1 },
		"delivered above data sent":     func(r *core.Result) { r.DataSent = r.Delivered - 1 },
		"bottleneck above forward":      func(r *core.Result) { r.BottleneckDrops = r.ForwardDrops + 1 },
		"forward drops above data sent": func(r *core.Result) { r.ForwardDrops = r.DataSent + 1; r.BottleneckDrops = 0 },
	} {
		broken := *r
		breakIt(&broken)
		g := newGate(nil)
		g.pass("main", 1, []*core.Result{&broken}, nil, true)
		if g.failed != 1 {
			t.Errorf("%s: counted %d failures, want 1", name, g.failed)
		}
	}
}

func TestGateSkipsPerFlowSumForCachedResults(t *testing.T) {
	r := smallResult(t)
	cached := *r
	cached.Flows = nil
	g := newGate(nil)
	g.pass("main", 1, []*core.Result{&cached}, nil, false)
	if !g.ok() {
		t.Fatalf("a cached result without flows failed: %v", g.errs)
	}
}

func TestGateFailsEveryOperationOfAFailedPass(t *testing.T) {
	g := newGate(nil)
	g.pass("main", 3, nil, errors.New("boom"), true)
	if g.failed != 3 || g.attempted != 3 {
		t.Fatalf("attempted %d, failed %d, want 3 and 3", g.attempted, g.failed)
	}
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		pins, err := loadPins(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(w.configs(w.base(defaultSeed))); len(pins) != want {
			t.Errorf("%s: %d pinned digests, want %d", w.name, len(pins), want)
		}
	}
}
