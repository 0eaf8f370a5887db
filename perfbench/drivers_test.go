package main

import (
	"testing"
	"time"

	"tcpburst/internal/core"
)

func TestDriversPassTheirOwnChecks(t *testing.T) {
	base := core.DefaultConfig(0, core.Reno, core.FIFO)
	var cfgs []core.Config
	for _, cell := range core.PaperCells() {
		c := base
		c.Clients = 8
		c.Protocol, c.Gateway = cell.Protocol, cell.Gateway
		cfgs = append(cfgs, c.WithDefaults())
	}
	sh := shapeOf(cfgs, []*core.Result{{Queue: core.QueueStats{Mean: 12.4}}})
	if sh.clients != 8 || len(sh.protocols) != 3 {
		t.Fatalf("shape: %d clients, protocols %v", sh.clients, sh.protocols)
	}
	for _, d := range drivers {
		v, err := d.run(sh, 1)
		if err != nil {
			t.Errorf("%s: %v", d.name, err)
		} else if v <= 0 {
			t.Errorf("%s = %v, want a positive time", d.name, v)
		}
	}
}

func TestCacheTimesReadBackWhatTheyWrite(t *testing.T) {
	cfg := core.DefaultConfig(4, core.Reno, core.FIFO)
	cfg.Duration = time.Second
	r, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, put, get, err := cacheTimes(t.TempDir(), []*core.Result{r})
	if err != nil {
		t.Fatal(err)
	}
	if key <= 0 || put <= 0 || get <= 0 {
		t.Fatalf("key %v put %v get %v µs, want positive", key, put, get)
	}
}

func TestParseTopGroupsFramesByLayer(t *testing.T) {
	text := `File: perfbench
Type: cpu
Showing nodes accounting for 2.50s, 100% of 2.50s total
      flat  flat%   sum%        cum   cum%
     1.20s 48.00% 48.00%      1.50s 60.00%  tcpburst/internal/sim.(*Scheduler).Run
     0.50s 20.00% 68.00%      0.50s 20.00%  math/rand.(*rngSource).Int63
     300ms 12.00% 80.00%      300ms 12.00%  runtime.mallocgc
     200ms  8.00% 88.00%      200ms  8.00%  internal/runtime/atomic.(*Uint32).Load
     200ms  8.00% 96.00%      200ms  8.00%  tcpburst/internal/tcp.(*Sender).trySend
     100ms  4.00%   100%      100ms  4.00%  syscall.Syscall
         0     0%   100%      2.50s   100%  tcpburst/internal/core.RunContext
`
	flat, err := parseTop(text)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for fn, v := range flat {
		got[layerOf(fn)] += v
	}
	want := map[string]float64{"sim": 1.2, "math_rand": 0.5, "runtime": 0.5, "tcp": 0.2, "other": 0.1, "core": 0}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v s, want %v", k, got[k], v)
		}
	}
}
