package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refRNG is the reference for RNG: the same methods written over
// math/rand's rand.New(rand.NewSource(seed)).
type refRNG struct{ r *rand.Rand }

func newRefRNG(seed int64) *refRNG { return &refRNG{rand.New(rand.NewSource(seed))} }

func (g *refRNG) fork(stream int64) *refRNG {
	z := uint64(g.r.Int63()) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return newRefRNG(int64(z & math.MaxInt64))
}

func (g *refRNG) exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

func (g *refRNG) expDuration(mean Duration) Duration {
	return max(Duration(g.exp(float64(mean))), 1)
}

func (g *refRNG) pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		return 0
	}
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// rngOracleSeeds are the seeds the oracle test runs and the fuzz target's
// corpus holds: the edges of math/rand's seed reduction mod 2³¹−1.
var rngOracleSeeds = []int64{
	0, 1, -1,
	seedMod - 1, seedMod, -seedMod, seedMod + 1,
	math.MaxInt64, math.MinInt64,
	2 * seedMod, -5 * seedMod, seedMod << 32,
}

// zigPaths counts how often the exponential ziggurat left its fast path.
type zigPaths struct{ tail, wedgeRejects int }

// expPath reports, before an exponential draw from g, whether the draw
// will take the ziggurat's i == 0 tail path.
func expPath(g *RNG) (tail bool) {
	peek := *g // the state is a value: copying it forks nothing
	j := uint32(peek.int63() >> 31)
	return j&0xFF == 0 && j >= ke[0]
}

// consumed counts the raw values drawn between two states of one stream.
// An exponential draw that took more than two made at least one wedge
// rejection.
func consumed(before, after *RNG) int {
	n := int(before.tap - after.tap)
	if n < 0 {
		n += rngLen
	}
	return n
}

// matchStreams draws n interleaved variates from g and ref and fails on the
// first value that differs in any bit. Every 600th step forks both and
// recurses into the children, depth levels deep.
func matchStreams(t *testing.T, g *RNG, ref *refRNG, n, depth int, paths *zigPaths) {
	t.Helper()
	check := func(k int, what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d (%s, depth %d): got %v, math/rand gives %v", k, what, depth, got, want)
		}
	}
	for k := 0; k < n; k++ {
		switch k % 6 {
		case 0:
			check(k, "Float64", g.Float64(), ref.r.Float64())
		case 1:
			check(k, "Uniform", g.Uniform(-3, 5+float64(k%7)), -3+(5+float64(k%7)+3)*ref.r.Float64())
		case 2:
			mean := float64(k%5) - 0.5 // includes non-positive means, which draw nothing
			before := *g
			tail := expPath(g)
			check(k, "Exp", g.Exp(mean), ref.exp(mean))
			if mean > 0 {
				if tail {
					paths.tail++
				}
				if consumed(&before, g) > 2 {
					paths.wedgeRejects++
				}
			}
		case 3:
			mean := []Duration{1, 3, time.Millisecond, 10 * time.Millisecond}[k%4]
			before := *g
			tail := expPath(g)
			check(k, "ExpDuration", float64(g.ExpDuration(mean)), float64(ref.expDuration(mean)))
			if tail {
				paths.tail++
			}
			if consumed(&before, g) > 2 {
				paths.wedgeRejects++
			}
		case 4:
			alpha := []float64{1.2, 1.5, 2.5, 0}[k%4] // 0 is degenerate and draws nothing
			check(k, "Pareto", g.Pareto(alpha, 4), ref.pareto(alpha, 4))
		case 5:
			if k%600 == 5 && depth > 0 {
				stream := int64(k) - 300
				matchStreams(t, g.Fork(stream), ref.fork(stream), 700, depth-1, paths)
				continue
			}
			check(k, "Exp(1)", g.Exp(1), ref.exp(1))
		}
	}
}

// TestRNGMatchesMathRand is the equivalence oracle: RNG must replay
// math/rand value for value, so replacing the wrapper moved no golden.
// 10⁴ draws per stream wrap the 607-word state many times.
func TestRNGMatchesMathRand(t *testing.T) {
	var paths zigPaths
	for _, seed := range rngOracleSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			matchStreams(t, NewRNG(seed), newRefRNG(seed), 10_000, 2, &paths)
		})
	}
	t.Logf("ziggurat tail taken %d times, wedge rejections %d", paths.tail, paths.wedgeRejects)
	if paths.tail == 0 || paths.wedgeRejects == 0 {
		t.Errorf("ziggurat paths not covered: tail taken %d times, wedge rejections %d", paths.tail, paths.wedgeRejects)
	}
}

func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		var paths zigPaths
		matchStreams(t, NewRNG(seed), newRefRNG(seed), 2_000, 1, &paths)
	})
}

// TestFloat64ResamplesOne covers the branch no seed reaches in practice:
// a raw value so close to 2⁶³ that Int63/2⁶³ rounds to 1. math/rand then
// draws again, and so must RNG.
func TestFloat64ResamplesOne(t *testing.T) {
	g := NewRNG(1)
	tap, feed := (g.tap+rngLen-1)%rngLen, (g.feed+rngLen-1)%rngLen
	g.vec[feed], g.vec[tap] = math.MaxInt64, 0
	peek := *g
	if first := float64(peek.int63()) / (1 << 63); first != 1 {
		t.Fatalf("crafted draw gives %v, want a value that rounds to 1", first)
	}
	want := float64(peek.int63()) / (1 << 63)
	if got := g.Float64(); got != want || g.tap != peek.tap {
		t.Errorf("Float64 = %v after %d draws, want the second draw %v", got, consumed(&peek, g), want)
	}
}

var rngSink *RNG

// TestRNGAllocs pins the allocation profile: a stream is one allocation
// and a draw is none.
func TestRNGAllocs(t *testing.T) {
	g := NewRNG(1)
	var x float64
	var d Duration
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"NewRNG", 1, func() { rngSink = NewRNG(7) }},
		{"Fork", 1, func() { rngSink = g.Fork(3) }},
		{"ExpDuration", 0, func() { d += g.ExpDuration(time.Millisecond) }},
		{"Float64", 0, func() { x += g.Float64() }},
		{"Pareto", 0, func() { x += g.Pareto(1.5, 4) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocations per call, want %v", c.name, got, c.want)
		}
	}
}

// TestRNGHasNoPointers checks that the garbage collector has nothing to
// scan in a stream's state.
func TestRNGHasNoPointers(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		case reflect.Array:
			return hasPointers(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if hasPointers(ty.Field(i).Type) {
					return true
				}
			}
			return false
		default:
			return true
		}
	}
	ty := reflect.TypeOf(RNG{})
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); hasPointers(f.Type) {
			t.Errorf("RNG.%s (%v) holds a pointer", f.Name, f.Type)
		}
	}
}
