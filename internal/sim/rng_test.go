package sim

import (
	"math"
	"testing"
	"time"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds matched on %d/100 draws", same)
	}
}

func TestForkIsDeterministicAndDecorrelated(t *testing.T) {
	f1 := NewRNG(1).Fork(3)
	f2 := NewRNG(1).Fork(3)
	for i := 0; i < 50; i++ {
		if f1.Float64() != f2.Float64() {
			t.Fatal("same fork stream differs across identical parents")
		}
	}
	// Adjacent streams must not be correlated.
	g1, g2 := NewRNG(1).Fork(1), NewRNG(1).Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if g1.Float64() == g2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("adjacent fork streams matched on %d/100 draws", same)
	}
}

func TestExpMeanConverges(t *testing.T) {
	g := NewRNG(11)
	const mean = 2.5
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean) > 0.05 {
		t.Errorf("exponential sample mean = %v, want ~%v", got, mean)
	}
}

func TestExpVarianceConverges(t *testing.T) {
	// Var of Exp(mean) is mean^2.
	g := NewRNG(12)
	const mean = 1.5
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Exp(mean)
		sum += x
		sumSq += x * x
	}
	m := sum / n
	v := sumSq/n - m*m
	if math.Abs(v-mean*mean)/(mean*mean) > 0.05 {
		t.Errorf("exponential variance = %v, want ~%v", v, mean*mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	g := NewRNG(1)
	if g.Exp(0) != 0 || g.Exp(-1) != 0 {
		t.Error("non-positive mean must return 0")
	}
}

func TestExpDurationFloor(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if d := g.ExpDuration(time.Nanosecond); d < 1 {
			t.Fatalf("ExpDuration returned %v < 1ns", d)
		}
	}
}

func TestExpDurationMean(t *testing.T) {
	g := NewRNG(5)
	const mean = 10 * time.Millisecond
	var sum time.Duration
	const n = 100000
	for i := 0; i < n; i++ {
		sum += g.ExpDuration(mean)
	}
	got := float64(sum) / n
	if math.Abs(got-float64(mean))/float64(mean) > 0.02 {
		t.Errorf("ExpDuration mean = %v, want ~%v", time.Duration(got), mean)
	}
}

func TestParetoProperties(t *testing.T) {
	g := NewRNG(3)
	const alpha, xm = 1.5, 4.0
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := g.Pareto(alpha, xm)
		if x < xm {
			t.Fatalf("Pareto sample %v below scale %v", x, xm)
		}
		sum += x
	}
	// Mean of Pareto = xm*alpha/(alpha-1) = 12. Heavy tails converge
	// slowly, so allow a wide band.
	got := sum / n
	want := xm * alpha / (alpha - 1)
	if got < want*0.7 || got > want*1.5 {
		t.Errorf("Pareto sample mean = %v, want ~%v", got, want)
	}
}

func TestParetoDegenerateParams(t *testing.T) {
	g := NewRNG(1)
	if g.Pareto(0, 1) != 0 || g.Pareto(1, 0) != 0 {
		t.Error("degenerate Pareto parameters must return 0")
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 10000; i++ {
		x := g.Uniform(3, 7)
		if x < 3 || x >= 7 {
			t.Fatalf("Uniform(3,7) = %v out of range", x)
		}
	}
}
