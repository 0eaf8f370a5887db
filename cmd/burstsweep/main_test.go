package main

import "testing"

func TestSweepClientsIncludesCrossover(t *testing.T) {
	got := sweepClients(4, 60)
	for _, n := range []int{4, 38, 39, 40, 60} {
		if !contains(got, n) {
			t.Errorf("sweepClients missing %d: %v", n, got)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
}

func TestSweepClientsSmallMax(t *testing.T) {
	got := sweepClients(10, 20)
	// Crossover points above max are omitted.
	if contains(got, 38) || contains(got, 39) {
		t.Errorf("crossover beyond max included: %v", got)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("sweepClients(10,20) = %v", got)
	}
}

func TestSweepCells(t *testing.T) {
	cells, err := sweepCells("fifo, codel?target=2ms,pie", "reno")
	if err != nil {
		t.Fatalf("sweepCells: %v", err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3: %v", len(cells), cells)
	}
	if cells[1].Gateway != "codel?target=2ms" || cells[1].Protocol.String() != "reno" {
		t.Errorf("cell 1 = %+v", cells[1])
	}
	if cells[0].Gateway != "fifo" {
		t.Errorf("cell 0 = %+v, want the fifo spec", cells[0])
	}
}

func TestSweepCellsEmptyMeansPaper(t *testing.T) {
	cells, err := sweepCells("", "reno")
	if err != nil || cells != nil {
		t.Errorf("empty -queue: cells=%v err=%v", cells, err)
	}
}

func TestSweepCellsRejectsBadInput(t *testing.T) {
	if _, err := sweepCells("codel?", "reno"); err == nil {
		t.Error("dangling '?' accepted")
	}
	if _, err := sweepCells("fifo", "quic"); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := sweepCells(" , ,", "reno"); err == nil {
		t.Error("blank spec list accepted")
	}
}

func TestRunRequiresMode(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no mode accepted")
	}
	if err := run([]string{"-fig", "7"}); err == nil {
		t.Error("non-sweep figure accepted")
	}
	if err := run([]string{"-all"}); err == nil {
		t.Error("-all without -out accepted")
	}
}

func TestRunRejectsUnknownBackend(t *testing.T) {
	if err := run([]string{"-fig", "2", "-backend", "bogus"}); err == nil {
		t.Error("bogus backend accepted")
	}
}
