// Package geom provides the small amount of 3-D geometry used throughout the
// library: points, axis-aligned boxes, and the integer index arithmetic of a
// nested octree decomposition.
//
// The octree convention follows the paper: the computational domain is the
// smallest cube containing both ensembles; a child is produced by halving the
// parent along each dimension, and a box at level l has side
// domain.Size / 2^l. Boxes are addressed by an Index holding the level and
// the three integer coordinates of the box within the level-l grid.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in R^3. It doubles as a vector.
type Point struct {
	X, Y, Z float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns s * p.
func (p Point) Scale(s float64) Point { return Point{s * p.X, s * p.Y, s * p.Z} }

// Dot returns the inner product of p and q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y + p.Z*q.Z }

// Norm returns the Euclidean length of p.
func (p Point) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// Dist returns |p - q|.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Min returns the componentwise minimum of p and q.
func (p Point) Min(q Point) Point {
	return Point{math.Min(p.X, q.X), math.Min(p.Y, q.Y), math.Min(p.Z, q.Z)}
}

// Max returns the componentwise maximum of p and q.
func (p Point) Max(q Point) Point {
	return Point{math.Max(p.X, q.X), math.Max(p.Y, q.Y), math.Max(p.Z, q.Z)}
}

// Cube is an axis-aligned cube described by its low corner and side length.
type Cube struct {
	Low  Point
	Side float64
}

// Center returns the center of the cube.
func (c Cube) Center() Point {
	h := c.Side / 2
	return Point{c.Low.X + h, c.Low.Y + h, c.Low.Z + h}
}

// Contains reports whether p lies inside the half-open cube [low, low+side).
// The high faces are treated as inside so the domain cube admits points on
// its boundary.
func (c Cube) Contains(p Point) bool {
	return p.X >= c.Low.X && p.X <= c.Low.X+c.Side &&
		p.Y >= c.Low.Y && p.Y <= c.Low.Y+c.Side &&
		p.Z >= c.Low.Z && p.Z <= c.Low.Z+c.Side
}

// BoundingCube returns the smallest cube that contains every point of the
// given slices, expanded by a tiny margin so boundary points classify
// unambiguously. It panics if both slices are empty.
func BoundingCube(ensembles ...[]Point) Cube {
	lo := Point{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := Point{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	n := 0
	for _, pts := range ensembles {
		for _, p := range pts {
			lo = lo.Min(p)
			hi = hi.Max(p)
			n++
		}
	}
	if n == 0 {
		panic("geom: BoundingCube of empty ensembles")
	}
	d := hi.Sub(lo)
	side := math.Max(d.X, math.Max(d.Y, d.Z))
	if side == 0 {
		side = 1
	}
	// Center the cube on the data and pad slightly so that points sitting
	// exactly on the high faces fall strictly inside child boxes.
	side *= 1 + 1e-12
	pad := side * 1e-9
	side += 2 * pad
	ctr := lo.Add(hi).Scale(0.5)
	h := side / 2
	return Cube{Low: Point{ctr.X - h, ctr.Y - h, ctr.Z - h}, Side: side}
}

// Index identifies a box in the nested octree decomposition of a domain
// cube: the box at Level l with integer coordinates (X, Y, Z) each in
// [0, 2^l).
type Index struct {
	Level   int8
	X, Y, Z int32
}

// Root is the index of the whole domain.
var Root = Index{}

// Child returns the index of the octant o (0..7) of the box, with bit 0 of o
// selecting high-x, bit 1 high-y, bit 2 high-z.
func (ix Index) Child(o int) Index {
	return Index{
		Level: ix.Level + 1,
		X:     2*ix.X + int32(o&1),
		Y:     2*ix.Y + int32(o>>1&1),
		Z:     2*ix.Z + int32(o>>2&1),
	}
}

// Parent returns the index of the enclosing box one level up. The root is
// its own parent.
func (ix Index) Parent() Index {
	if ix.Level == 0 {
		return ix
	}
	return Index{Level: ix.Level - 1, X: ix.X / 2, Y: ix.Y / 2, Z: ix.Z / 2}
}

// Octant returns which child of its parent this box is.
func (ix Index) Octant() int {
	return int(ix.X&1) | int(ix.Y&1)<<1 | int(ix.Z&1)<<2
}

// Valid reports whether the coordinates fit in the level-l grid.
func (ix Index) Valid() bool {
	n := int32(1) << uint(ix.Level)
	return ix.Level >= 0 && ix.X >= 0 && ix.X < n && ix.Y >= 0 && ix.Y < n &&
		ix.Z >= 0 && ix.Z < n
}

// Offset returns the integer offset (dx, dy, dz) from ix to other, which must
// be at the same level.
func (ix Index) Offset(other Index) (dx, dy, dz int32) {
	return other.X - ix.X, other.Y - ix.Y, other.Z - ix.Z
}

// WellSeparated reports whether two same-level boxes are well separated in
// the FMM sense used by the paper: they are not neighbors, i.e. some
// coordinate offset has magnitude at least 2. (For same-level cubic boxes
// this is the standard beta-dilation criterion in integer form.)
func (ix Index) WellSeparated(other Index) bool {
	dx, dy, dz := ix.Offset(other)
	return abs32(dx) > 1 || abs32(dy) > 1 || abs32(dz) > 1
}

// Adjacent reports whether two boxes, possibly at different levels, touch or
// overlap (share boundary or interior). It is the complement of
// well-separatedness for the adaptive lists.
func Adjacent(a, b Index) bool {
	// Compare at the deeper level by scaling the shallower index.
	for a.Level < b.Level {
		a, b = b, a
	}
	// Now a.Level >= b.Level. Box b spans a range of level-a coordinates.
	shift := uint(a.Level - b.Level)
	bx0, bx1 := b.X<<shift, (b.X+1)<<shift-1
	by0, by1 := b.Y<<shift, (b.Y+1)<<shift-1
	bz0, bz1 := b.Z<<shift, (b.Z+1)<<shift-1
	return a.X >= bx0-1 && a.X <= bx1+1 &&
		a.Y >= by0-1 && a.Y <= by1+1 &&
		a.Z >= bz0-1 && a.Z <= bz1+1
}

// Cube returns the spatial cube of the box within the given domain.
func (ix Index) Cube(domain Cube) Cube {
	side := domain.Side / float64(int64(1)<<uint(ix.Level))
	return Cube{
		Low: Point{
			domain.Low.X + float64(ix.X)*side,
			domain.Low.Y + float64(ix.Y)*side,
			domain.Low.Z + float64(ix.Z)*side,
		},
		Side: side,
	}
}

// Key packs the index into a single uint64 suitable for map keys and
// ordering: 4 bits of level followed by the interleaved Morton code of the
// coordinates. Levels up to 20 are representable.
func (ix Index) Key() uint64 {
	return uint64(ix.Level)<<60 | Morton(uint32(ix.X), uint32(ix.Y), uint32(ix.Z))
}

// Morton interleaves the low 20 bits of x, y, z into a 60-bit Morton code.
func Morton(x, y, z uint32) uint64 {
	return spread(x) | spread(y)<<1 | spread(z)<<2
}

// spread distributes the low 20 bits of v so that consecutive bits land 3
// positions apart.
func spread(v uint32) uint64 {
	x := uint64(v) & 0xFFFFF
	x = (x | x<<32) & 0x1F00000000FFFF
	x = (x | x<<16) & 0x1F0000FF0000FF
	x = (x | x<<8) & 0x100F00F00F00F00F
	x = (x | x<<4) & 0x10C30C30C30C30C3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// String renders the index for diagnostics.
func (ix Index) String() string {
	return fmt.Sprintf("L%d(%d,%d,%d)", ix.Level, ix.X, ix.Y, ix.Z)
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// Direction labels the six axis directions used by the directional
// intermediate (plane-wave) expansions of the merge-and-shift FMM.
type Direction int8

// The six directions. Up/Down are ±z, North/South ±y, East/West ±x,
// following the convention of Greengard–Rokhlin (1997).
const (
	Up Direction = iota
	Down
	North
	South
	East
	West
	NumDirections = 6
)

var dirNames = [NumDirections]string{"up", "down", "north", "south", "east", "west"}

func (d Direction) String() string {
	if d < 0 || d >= NumDirections {
		return fmt.Sprintf("Direction(%d)", int(d))
	}
	return dirNames[d]
}

// Axis returns the coordinate axis (0=x, 1=y, 2=z) of the direction.
func (d Direction) Axis() int {
	switch d {
	case East, West:
		return 0
	case North, South:
		return 1
	default:
		return 2
	}
}

// Sign returns +1 for the positive directions (Up, North, East) and -1 for
// the negative ones.
func (d Direction) Sign() int {
	switch d {
	case Up, North, East:
		return 1
	default:
		return -1
	}
}

// Opposite returns the reversed direction.
func (d Direction) Opposite() Direction {
	switch d {
	case Up:
		return Down
	case Down:
		return Up
	case North:
		return South
	case South:
		return North
	case East:
		return West
	default:
		return East
	}
}

// RotateToUp maps a vector expressed in world coordinates into the frame in
// which direction d plays the role of +z. The rotations are axis
// permutations with signs, chosen so that RotateFromUp inverts them.
func (d Direction) RotateToUp(v Point) Point {
	switch d {
	case Up:
		return v
	case Down:
		return Point{v.X, -v.Y, -v.Z}
	case North:
		return Point{v.X, -v.Z, v.Y}
	case South:
		return Point{v.X, v.Z, -v.Y}
	case East:
		return Point{-v.Z, v.Y, v.X}
	default: // West
		return Point{v.Z, v.Y, -v.X}
	}
}

// RotateFromUp is the inverse of RotateToUp.
func (d Direction) RotateFromUp(v Point) Point {
	switch d {
	case Up:
		return v
	case Down:
		return Point{v.X, -v.Y, -v.Z}
	case North:
		return Point{v.X, v.Z, -v.Y}
	case South:
		return Point{v.X, -v.Z, v.Y}
	case East:
		return Point{v.Z, v.Y, -v.X}
	default: // West
		return Point{-v.Z, v.Y, v.X}
	}
}

// DirectionOf classifies the integer offset (dx,dy,dz) from a source box to
// a target box into the directional slab whose plane-wave expansion is
// valid for the pair, following the priority-ordered partition of
// Greengard–Rokhlin (1997): Up/Down capture |dz| >= 2 regardless of lateral
// offset (the quadrature is built for z in [1,4], rho <= 4 sqrt(2)), then
// North/South capture the remaining |dy| >= 2, then East/West |dx| >= 2.
// Well-separated same-level interaction-list offsets always classify; false
// is returned only for near offsets.
func DirectionOf(dx, dy, dz int32) (Direction, bool) {
	switch {
	case dz >= 2:
		return Up, true
	case dz <= -2:
		return Down, true
	case dy >= 2:
		return North, true
	case dy <= -2:
		return South, true
	case dx >= 2:
		return East, true
	case dx <= -2:
		return West, true
	}
	return 0, false
}
