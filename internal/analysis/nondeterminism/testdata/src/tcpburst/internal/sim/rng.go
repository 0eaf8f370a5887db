package sim

import "math/rand" // want `deterministic package tcpburst/internal/sim imports math/rand`

// RNG wraps an explicitly seeded math/rand source. The import alone is a
// finding: the real sim RNG owns its generator and imports no math/rand.
type RNG struct{ r *rand.Rand }

// NewRNG builds a stream from a seed; seeded constructors are not global
// draws.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Intn draws from the wrapped stream; methods on a Rand value are fine.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

func Global() int {
	return rand.Int() // want `global math/rand.Int draws from the process-wide source`
}
