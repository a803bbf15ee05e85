package sim

import "math"

// RNG is a small, fast, deterministic random number generator
// (splitmix64-seeded xoshiro256**). Every stochastic choice in the
// simulator flows through an RNG so that runs are reproducible; the
// standard library's global rand is never used.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded from the given value. Distinct seeds yield
// independent-looking streams; the zero seed is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed re-initializes the generator state from seed using splitmix64, which
// guarantees a non-degenerate (non-zero) internal state.
func (r *RNG) Seed(seed uint64) {
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ExpTime returns an exponentially distributed duration with the given
// mean, rounded to the nearest picosecond and never less than 1 ps.
func (r *RNG) ExpTime(mean Time) Time {
	d := Time(math.Round(r.Exp(float64(mean))))
	if d < 1 {
		d = 1
	}
	return d
}

// Split returns a new RNG seeded from this one, for giving independent
// streams to sub-components without correlating their draws.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
