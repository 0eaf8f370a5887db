package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunPrintsMetrics(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{"-clients", "5", "-duration", "5s"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"experiment: 5 clients, reno, fifo gateway",
		"c.o.v. (measured)",
		"c.o.v. (Poisson)",
		"delivered",
		"queue mean/p95/max",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestRunPerFlowBreakdown(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{"-clients", "3", "-duration", "2s", "-flows"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "client  3:") {
		t.Errorf("per-flow breakdown missing:\n%s", sb.String())
	}
}

func TestRunREDOverrides(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{
		"-clients", "5", "-duration", "2s",
		"-queue", "red?min=5&max=20&weight=0.01&maxprob=0.2",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "RED:") {
		t.Errorf("RED stats missing:\n%s", sb.String())
	}
}

func TestRunRegistryQueue(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{
		"-clients", "5", "-duration", "3s",
		"-queue", "codel?target=2ms&interval=40ms",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	// The header uses the spec's canonical (key-sorted) rendering.
	if !strings.Contains(out, "codel?interval=40ms&target=2ms gateway") {
		t.Errorf("canonical discipline label missing:\n%s", out)
	}
	if !strings.Contains(out, "AQM:") {
		t.Errorf("AQM stats line missing:\n%s", out)
	}
}

func TestRunRegistryQueueBadParam(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{"-queue", "codel?targit=1ms"})
	if err == nil || !strings.Contains(err.Error(), "targit") {
		t.Errorf("bad parameter not rejected clearly: %v", err)
	}
}

func TestRunWireLossAndReverseFlags(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{
		"-clients", "5", "-duration", "5s", "-wireloss", "0.05", "-revrate", "1e6",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "wire losses") {
		t.Errorf("wire losses line missing:\n%s", sb.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{"-proto", "bogus"}); err == nil {
		t.Error("bogus protocol accepted")
	}
	if err := run(&sb, []string{"-queue", "bogus"}); err == nil {
		t.Error("bogus queue accepted")
	}
	if err := run(&sb, []string{"-backend", "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("bogus backend not rejected clearly: %v", err)
	}
	if err := run(&sb, []string{"-fluid-trace", "x.csv"}); err == nil ||
		!strings.Contains(err.Error(), "-backend fluid") {
		t.Errorf("-fluid-trace without fluid backend not rejected clearly: %v", err)
	}
	if err := run(&sb, []string{"-backend", "fluid", "-flows"}); err == nil ||
		!strings.Contains(err.Error(), "packet backend") {
		t.Errorf("-flows on fluid backend not rejected clearly: %v", err)
	}
	if err := run(&sb, []string{"-backend", "fluid", "-wireloss", "0.1"}); err == nil ||
		!strings.Contains(err.Error(), "WireLossProb") {
		t.Errorf("fluid-incompatible wireloss not rejected clearly: %v", err)
	}
}

func TestRunFluidBackend(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{"-backend", "fluid", "-clients", "500", "-duration", "10s"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"fluid:", "iterations", "drop prob"} {
		if !strings.Contains(out, want) {
			t.Errorf("fluid output missing %q\n%s", want, out)
		}
	}
}

func TestRunFluidTrace(t *testing.T) {
	path := t.TempDir() + "/ode.csv"
	var sb strings.Builder
	err := run(&sb, []string{
		"-backend", "fluid", "-clients", "500", "-duration", "5s",
		"-fluid-trace", path, "-fluid-trace-interval", "1s",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace has %d lines, want header + samples:\n%s", len(lines), raw)
	}
	if !strings.Contains(lines[0], "time_s") || !strings.Contains(lines[0], "queue_pkts") {
		t.Errorf("trace header malformed: %q", lines[0])
	}
}

func TestSafeRatioAndMinu(t *testing.T) {
	if safeRatio(1, 0) != 0 || safeRatio(6, 3) != 2 {
		t.Error("safeRatio broken")
	}
	if minu(3, 5) != 3 || minu(5, 3) != 3 {
		t.Error("minu broken")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{"-clients", "3", "-duration", "2s", "-json"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, `"protocol": "reno"`) || !strings.Contains(out, `"cov"`) {
		t.Errorf("JSON output malformed:\n%s", out)
	}
}
