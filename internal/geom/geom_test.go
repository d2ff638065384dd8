package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	a := Point{1, 2, 3}
	b := Point{-2, 0.5, 4}
	if got := a.Add(b); got != (Point{-1, 2.5, 7}) {
		t.Errorf("Add: %v", got)
	}
	if got := a.Sub(b); got != (Point{3, 1.5, -1}) {
		t.Errorf("Sub: %v", got)
	}
	if got := a.Scale(2); got != (Point{2, 4, 6}) {
		t.Errorf("Scale: %v", got)
	}
	if got := a.Dot(b); got != -2+1+12 {
		t.Errorf("Dot: %v", got)
	}
	if math.Abs(a.Norm()-math.Sqrt(14)) > 1e-15 {
		t.Errorf("Norm: %v", a.Norm())
	}
}

func TestBoundingCubeContainsAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point, 50)
		for i := range pts {
			pts[i] = Point{rng.NormFloat64() * 3, rng.NormFloat64(), rng.Float64() * 10}
		}
		c := BoundingCube(pts)
		for _, p := range pts {
			if !c.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBoundingCubeIsCube(t *testing.T) {
	pts := []Point{{0, 0, 0}, {10, 1, 2}}
	c := BoundingCube(pts)
	if c.Side < 10 {
		t.Errorf("side %v too small", c.Side)
	}
}

func TestChildParentRoundTrip(t *testing.T) {
	ix := Index{Level: 3, X: 5, Y: 2, Z: 7}
	for o := 0; o < 8; o++ {
		c := ix.Child(o)
		if c.Parent() != ix {
			t.Errorf("child %d parent mismatch", o)
		}
		if c.Octant() != o {
			t.Errorf("octant %d reported as %d", o, c.Octant())
		}
		if !c.Valid() {
			t.Errorf("child %d invalid", o)
		}
	}
}

func TestIndexCubeNesting(t *testing.T) {
	dom := Cube{Low: Point{-1, -1, -1}, Side: 4}
	ix := Index{Level: 2, X: 1, Y: 3, Z: 0}
	c := ix.Cube(dom)
	if c.Side != 1 {
		t.Errorf("level-2 side %v, want 1", c.Side)
	}
	// A point in a box's cube is in the cube of exactly one of its children.
	p := Point{0.3, 2.9, -0.7}
	cur := Root
	for l := 0; l < 5; l++ {
		var in []Index
		for o := 0; o < 8; o++ {
			if c := cur.Child(o); c.Cube(dom).Contains(p) {
				in = append(in, c)
			}
		}
		if len(in) != 1 {
			t.Fatalf("level %d: %v lies in %d children of %v, want 1", l+1, p, len(in), cur)
		}
		cur = in[0]
	}
}

func TestWellSeparated(t *testing.T) {
	a := Index{Level: 3, X: 4, Y: 4, Z: 4}
	cases := []struct {
		b    Index
		want bool
	}{
		{Index{Level: 3, X: 5, Y: 5, Z: 5}, false},
		{Index{Level: 3, X: 4, Y: 4, Z: 4}, false},
		{Index{Level: 3, X: 6, Y: 4, Z: 4}, true},
		{Index{Level: 3, X: 3, Y: 2, Z: 4}, true},
		{Index{Level: 3, X: 5, Y: 3, Z: 4}, false},
	}
	for _, c := range cases {
		if got := a.WellSeparated(c.b); got != c.want {
			t.Errorf("WellSeparated(%v, %v) = %v", a, c.b, got)
		}
	}
}

func TestAdjacentCrossLevel(t *testing.T) {
	// A level-2 box and the level-3 box sharing a face are adjacent.
	a := Index{Level: 2, X: 1, Y: 1, Z: 1}
	b := Index{Level: 3, X: 4, Y: 2, Z: 2} // touches a's low-x face region
	if !Adjacent(a, b) {
		t.Error("face-sharing boxes not adjacent")
	}
	far := Index{Level: 3, X: 0, Y: 0, Z: 0}
	if Adjacent(a, far) {
		t.Error("distant boxes adjacent")
	}
	// A box is adjacent to itself and to its parent.
	if !Adjacent(a, a) || !Adjacent(a, a.Parent()) {
		t.Error("self/parent adjacency broken")
	}
}

func TestAdjacentSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Index{Level: int8(rng.Intn(4)), X: int32(rng.Intn(8)), Y: int32(rng.Intn(8)), Z: int32(rng.Intn(8))}
		b := Index{Level: int8(rng.Intn(4)), X: int32(rng.Intn(8)), Y: int32(rng.Intn(8)), Z: int32(rng.Intn(8))}
		na := int32(1) << uint(a.Level)
		nb := int32(1) << uint(b.Level)
		a.X, a.Y, a.Z = a.X%na, a.Y%na, a.Z%na
		b.X, b.Y, b.Z = b.X%nb, b.Y%nb, b.Z%nb
		return Adjacent(a, b) == Adjacent(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMortonDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			for z := uint32(0); z < 8; z++ {
				m := Morton(x, y, z)
				if seen[m] {
					t.Fatalf("collision at (%d,%d,%d)", x, y, z)
				}
				seen[m] = true
			}
		}
	}
}

func TestDirectionProperties(t *testing.T) {
	for d := Direction(0); d < NumDirections; d++ {
		if d.Opposite().Opposite() != d {
			t.Errorf("%v: double opposite", d)
		}
		if d.Opposite().Axis() != d.Axis() {
			t.Errorf("%v: opposite changes axis", d)
		}
		if d.Opposite().Sign() != -d.Sign() {
			t.Errorf("%v: opposite keeps sign", d)
		}
	}
}

func TestDirectionOfSlabPriority(t *testing.T) {
	cases := []struct {
		dx, dy, dz int32
		want       Direction
	}{
		{0, 0, 2, Up}, {0, 0, -3, Down},
		{3, 3, 2, Up},    // z-slab wins regardless of lateral offset
		{3, 2, 1, North}, // then y
		{2, 1, -1, East}, // then x
		{-3, 1, 0, West},
	}
	for _, c := range cases {
		got, ok := DirectionOf(c.dx, c.dy, c.dz)
		if !ok || got != c.want {
			t.Errorf("DirectionOf(%d,%d,%d) = %v,%v want %v", c.dx, c.dy, c.dz, got, ok, c.want)
		}
	}
	if _, ok := DirectionOf(1, 1, 1); ok {
		t.Error("near offset classified")
	}
}
