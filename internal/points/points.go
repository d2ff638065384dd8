// Package points generates the source and target ensembles used by the
// paper's experiments: points distributed uniformly in a cube and uniformly
// on the surface of a sphere. A Plummer model is included as a common
// astrophysics extension. All generators are deterministic for a given seed.
package points

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Distribution names a point distribution.
type Distribution int

// Supported distributions.
const (
	Cube Distribution = iota
	Sphere
	Plummer
)

func (d Distribution) String() string {
	switch d {
	case Cube:
		return "cube"
	case Sphere:
		return "sphere"
	case Plummer:
		return "plummer"
	default:
		return "unknown"
	}
}

// ParseDistribution is the inverse of Distribution.String.
func ParseDistribution(s string) (Distribution, error) {
	for d := Cube; d <= Plummer; d++ {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown distribution %q (want cube, sphere or plummer)", s)
}

// Generate returns n points drawn from the distribution with the given seed.
// Cube fills the unit cube [0,1)^3; Sphere places points uniformly on the
// surface of the sphere of radius 0.5 centered at (0.5,0.5,0.5); Plummer
// draws from a Plummer sphere with scale radius 0.1 clipped to the unit
// cube around its center.
func Generate(d Distribution, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	switch d {
	case Cube:
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		}
	case Sphere:
		for i := range pts {
			pts[i] = onSphere(rng, geom.Point{X: 0.5, Y: 0.5, Z: 0.5}, 0.5)
		}
	case Plummer:
		for i := range pts {
			pts[i] = plummer(rng, geom.Point{X: 0.5, Y: 0.5, Z: 0.5}, 0.1)
		}
	default:
		panic("points: unknown distribution")
	}
	return pts
}

// onSphere draws a point uniformly from the sphere surface of the given
// center and radius using the Archimedes cylinder projection.
func onSphere(rng *rand.Rand, c geom.Point, r float64) geom.Point {
	z := 2*rng.Float64() - 1
	phi := 2 * math.Pi * rng.Float64()
	s := math.Sqrt(1 - z*z)
	return geom.Point{
		X: c.X + r*s*math.Cos(phi),
		Y: c.Y + r*s*math.Sin(phi),
		Z: c.Z + r*z,
	}
}

// plummer draws a point from a Plummer sphere of scale radius a, rejecting
// samples that fall outside the unit cube around the center so the domain
// stays bounded.
func plummer(rng *rand.Rand, c geom.Point, a float64) geom.Point {
	for {
		// Inverse-CDF radius for the Plummer cumulative mass profile.
		m := rng.Float64()
		if m >= 0.999 {
			continue // clip the unbounded tail
		}
		r := a / math.Sqrt(math.Pow(m, -2.0/3.0)-1)
		p := onSphere(rng, c, r)
		if p.X >= c.X-0.5 && p.X < c.X+0.5 &&
			p.Y >= c.Y-0.5 && p.Y < c.Y+0.5 &&
			p.Z >= c.Z-0.5 && p.Z < c.Z+0.5 {
			return p
		}
	}
}

// Charges returns n deterministic charges in [-1, 1) with the given seed.
// The paper evaluates potentials due to unit-style charges; signed charges
// exercise cancellation in the accuracy tests.
func Charges(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	q := make([]float64, n)
	for i := range q {
		q[i] = 2*rng.Float64() - 1
	}
	return q
}

// UnitCharges returns n charges all equal to one.
func UnitCharges(n int) []float64 {
	q := make([]float64, n)
	for i := range q {
		q[i] = 1
	}
	return q
}
