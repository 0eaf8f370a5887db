package sim

import "math"

// The generator is math/rand's additive lagged Fibonacci generator
// (Mitchell and Reeds), held by value so a stream is one pointer-free
// allocation and every draw is a direct call.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// seedMod is the modulus of the Lehmer generator that seeds the state,
	// the Mersenne prime 2³¹−1, and seedMul its multiplier:
	// x ← seedMul·x mod seedMod.
	seedMod = 1<<31 - 1
	seedMul = 48271
	// seedWarmup is the number of Lehmer steps math/rand discards before
	// the first state word.
	seedWarmup = 20
)

// seedPow[k] is seedMul^k mod seedMod.
var seedPow [seedWarmup + 7]uint64

func init() {
	seedPow[0] = 1
	for k := 1; k < len(seedPow); k++ {
		seedPow[k] = mulMod(seedPow[k-1], seedMul)
	}
}

// mulMod returns a·b mod seedMod for a, b < seedMod, by Mersenne reduction
// without a division or a branch. Write v = a·b = q·seedMod + r. Since
// q < 2³¹, v>>31 is q or q−1, so (v + v>>31 + 1)>>31 is exactly q; and
// v + q = q·2³¹ + r, whose low 31 bits are r.
func mulMod(a, b uint64) uint64 {
	v := a * b
	return (v + (v+v>>31+1)>>31) & seedMod
}

// RNG is a deterministic source of the random variates the simulator needs.
// All randomness in a simulation must flow through RNGs derived from a single
// seed so that identical configurations replay identically.
//
// An RNG replays math/rand's rand.New(rand.NewSource(seed)) value for value:
// the same generator, seeding and variate formulas. It holds no pointers, so
// the garbage collector never scans its state.
type RNG struct {
	vec       [rngLen]int64
	tap, feed int32
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.seed(seed)
	return g
}

// seed fills the state as math/rand's rngSource.Seed does. There, state
// word i packs the Lehmer values x[21+3i], x[22+3i] and x[23+3i], computed
// one dependent step at a time. Here six independent chains, three for the
// even words and three for the odd, start at x[k] = seedMul^k·x[0] and
// advance by seedMul⁶, so the processor overlaps their multiplies.
func (g *RNG) seed(seed int64) {
	g.tap = 0
	g.feed = rngLen - rngTap

	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}

	x := uint64(seed)
	const w = seedWarmup
	a0, a1, a2 := mulMod(x, seedPow[w+1]), mulMod(x, seedPow[w+2]), mulMod(x, seedPow[w+3])
	b0, b1, b2 := mulMod(x, seedPow[w+4]), mulMod(x, seedPow[w+5]), mulMod(x, seedPow[w+6])
	step := seedPow[6]
	i := 0
	for ; i+1 < rngLen; i += 2 {
		g.vec[i] = int64(a0)<<40 ^ int64(a1)<<20 ^ int64(a2) ^ rngCooked[i]
		g.vec[i+1] = int64(b0)<<40 ^ int64(b1)<<20 ^ int64(b2) ^ rngCooked[i+1]
		a0, a1, a2 = mulMod(a0, step), mulMod(a1, step), mulMod(a2, step)
		b0, b1, b2 = mulMod(b0, step), mulMod(b1, step), mulMod(b2, step)
	}
	g.vec[i] = int64(a0)<<40 ^ int64(a1)<<20 ^ int64(a2) ^ rngCooked[i] // rngLen is odd
}

// int63 returns a non-negative 63-bit value (math/rand's Int63).
func (g *RNG) int63() int64 {
	tap, feed := g.tap-1, g.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	g.tap, g.feed = tap, feed
	x := g.vec[feed] + g.vec[tap]
	g.vec[feed] = x
	return x & rngMask
}

// Fork derives an independent child generator. Children are keyed by an
// arbitrary stream identifier so that, e.g., each traffic source draws from
// its own stream and adding a source does not perturb the others.
func (g *RNG) Fork(stream int64) *RNG {
	// SplitMix64-style avalanche of the child seed keeps sibling streams
	// decorrelated even for adjacent stream ids.
	z := uint64(g.int63()) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return NewRNG(int64(z & math.MaxInt64))
}

// Float64 returns a uniform variate in [0,1).
func (g *RNG) Float64() float64 {
	// Int63/2⁶³ can round up to 1; math/rand draws again.
	for {
		if f := float64(g.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Uniform returns a uniform variate in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.Float64()
}

// expFloat64 returns a unit-mean exponential variate by the ziggurat method
// (Marsaglia and Tsang, 2000), as math/rand's ExpFloat64.
func (g *RNG) expFloat64() float64 {
	const re = 7.69711747013104972 // start of the tail beyond the base layer
	for {
		j := uint32(g.int63() >> 31)
		i := j & 0xFF
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		if i == 0 {
			return re - math.Log(g.Float64())
		}
		if fe[i]+float32(g.Float64())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
	}
}

// Exp returns an exponential variate with the given mean. The mean must be
// positive; a non-positive mean returns 0.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.expFloat64() * mean
}

// ExpDuration returns an exponentially distributed duration with the given
// mean, floored at 1ns so event times strictly advance.
func (g *RNG) ExpDuration(mean Duration) Duration {
	d := Duration(g.Exp(float64(mean)))
	if d < 1 {
		d = 1
	}
	return d
}

// Pareto returns a Pareto variate with shape alpha and scale xm (the
// minimum value). Heavy-tailed for alpha <= 2; infinite variance makes it
// the canonical self-similar traffic ingredient.
func (g *RNG) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		return 0
	}
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}
