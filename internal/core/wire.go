package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/geom"
)

// Typed wire payloads for multi-process evaluation (distrib.go). In-process
// parcels are closures over the shared evaluation state; across a process
// boundary the same information travels as values: the source node's
// expansion payload plus the indexes of the out-edges the receiver must
// apply. The receiver installs the payload into its own state's buffers for
// that node — state.apply then reads it exactly as it would a local
// payload, so the operator semantics stay single-definition. Every decoder
// is length-checked and errors (never panics) on truncated or malformed
// input; the sizes are implied by the shared Plan, which all ranks build
// identically.

// Application payload kinds carried in amt.Frame.Kind (must stay below the
// amt control-plane range 0xff00).
const (
	// wireKindCharges is the rank-0 charge broadcast: the full charge vector
	// in the caller's source order, from which every rank derives its
	// tree-ordered q exactly as a local run would.
	wireKindCharges uint16 = 1
	// wireKindParcel is one coalesced node parcel: source node payload plus
	// the out-edge indexes bound for the destination rank.
	wireKindParcel uint16 = 2
	// wireKindResult is a worker's completed-targets report to rank 0:
	// potentials (and gradients) of the T nodes it owns.
	wireKindResult uint16 = 3
)

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func appendF64s(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func appendC128s(b []byte, vs []complex128) []byte {
	for _, v := range vs {
		b = appendF64s(b, real(v), imag(v))
	}
	return b
}

// wireReader is a bounds-checked little-endian cursor; every read reports
// truncation instead of slicing past the end.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("core: truncated wire payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *wireReader) f64s(dst []float64) error {
	if r.off+8*len(dst) > len(r.b) {
		return fmt.Errorf("core: truncated wire payload at offset %d", r.off)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return nil
}

func (r *wireReader) c128s(dst []complex128) error {
	if r.off+16*len(dst) > len(r.b) {
		return fmt.Errorf("core: truncated wire payload at offset %d", r.off)
	}
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off+8:]))
		dst[i] = complex(re, im)
		r.off += 16
	}
	return nil
}

func (r *wireReader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("core: %d trailing bytes in wire payload", len(r.b)-r.off)
	}
	return nil
}

// encodeCharges serializes the charge vector for the rank-0 broadcast.
func encodeCharges(charges []float64) []byte {
	buf := make([]byte, 0, 4+8*len(charges))
	buf = appendU32(buf, uint32(len(charges)))
	return appendF64s(buf, charges...)
}

func decodeCharges(b []byte, want int) ([]float64, error) {
	r := &wireReader{b: b}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(n) != want {
		return nil, fmt.Errorf("core: charge broadcast carries %d charges, plan has %d sources", n, want)
	}
	out := make([]float64, n)
	if err := r.f64s(out); err != nil {
		return nil, err
	}
	return out, r.done()
}

// appendNodePayload serializes the live expansion payload of one node: its
// coefficient vectors in the order of state.vectors. Their lengths are
// implied by the node's kind and masks plus the kernel sizes, all of which
// every rank derives from the shared Plan; S nodes carry nothing (the charge
// vector is globally broadcast) and T nodes are sinks that never send.
func (s *state) appendNodePayload(n *dag.Node, buf []byte) []byte {
	for _, v := range s.vectors(n.ID) {
		buf = appendC128s(buf, v)
	}
	return buf
}

// installNodePayload decodes a node payload into this rank's copy of the
// node's buffers (sized at newState from the same plan, so the shapes
// match by construction; mismatches mean a corrupt or foreign frame and
// surface as errors). Callers serialize against readers of the node's
// payload via the node's lock.
func (s *state) installNodePayload(n *dag.Node, r *wireReader) error {
	for _, v := range s.vectors(n.ID) {
		if err := r.c128s(v); err != nil {
			return err
		}
	}
	return nil
}

// encodeParcel serializes one coalesced node parcel: the source node, the
// global edge indexes bound for the destination (dedup keys at the
// receiver), and the node payload.
func (s *state) encodeParcel(n *dag.Node, outIdx []int32) []byte {
	buf := make([]byte, 0, 8+4*len(outIdx)+int(n.Bytes))
	buf = appendU32(buf, uint32(n.ID))
	buf = appendU32(buf, uint32(len(outIdx)))
	for _, j := range outIdx {
		buf = appendU32(buf, uint32(j))
	}
	return s.appendNodePayload(n, buf)
}

// decodeParcelHeader reads the source node and out-edge list of a parcel,
// leaving the reader positioned at the payload.
func decodeParcelHeader(g *dag.Graph, b []byte) (src int32, outIdx []int32, r *wireReader, err error) {
	r = &wireReader{b: b}
	s, err := r.u32()
	if err != nil {
		return 0, nil, nil, err
	}
	if int(s) >= len(g.Nodes) {
		return 0, nil, nil, fmt.Errorf("core: parcel source node %d out of range", s)
	}
	ne, err := r.u32()
	if err != nil {
		return 0, nil, nil, err
	}
	nOut := len(g.Nodes[s].Out)
	if int(ne) > nOut {
		return 0, nil, nil, fmt.Errorf("core: parcel carries %d edges, node %d has %d", ne, s, nOut)
	}
	outIdx = make([]int32, ne)
	for i := range outIdx {
		j, err := r.u32()
		if err != nil {
			return 0, nil, nil, err
		}
		if int(j) >= nOut {
			return 0, nil, nil, fmt.Errorf("core: parcel edge index %d out of range for node %d", j, s)
		}
		outIdx[i] = int32(j)
	}
	return int32(s), outIdx, r, nil
}

// encodeResult serializes the potentials (and gradients) of the given T
// nodes for the gather at rank 0.
func (s *state) encodeResult(ids []int32) []byte {
	g := s.p.Graph
	hasGrad := uint32(0)
	if s.grad != nil {
		hasGrad = 1
	}
	var buf []byte
	buf = appendU32(buf, hasGrad)
	buf = appendU32(buf, uint32(len(ids)))
	for _, id := range ids {
		b := g.Nodes[id].Box
		buf = appendU32(buf, uint32(id))
		buf = appendF64s(buf, s.pot[b.Lo:b.Hi]...)
		if s.grad != nil {
			for _, gp := range s.grad[b.Lo:b.Hi] {
				buf = appendF64s(buf, gp.X, gp.Y, gp.Z)
			}
		}
	}
	return buf
}

// installResult decodes a completed-targets report into the gather state,
// returning the T node IDs it covered. Overwrites are idempotent: a rank
// re-reporting after a failover carries the identical deterministic values.
func (s *state) installResult(b []byte) ([]int32, error) {
	g := s.p.Graph
	r := &wireReader{b: b}
	hasGrad, err := r.u32()
	if err != nil {
		return nil, err
	}
	if (hasGrad == 1) != (s.grad != nil) {
		return nil, fmt.Errorf("core: result gradient flag %d mismatches plan", hasGrad)
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	ids := make([]int32, 0, count)
	for i := uint32(0); i < count; i++ {
		id, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int(id) >= len(g.Nodes) || g.Nodes[id].Kind != dag.NodeT {
			return nil, fmt.Errorf("core: result node %d is not a target node", id)
		}
		box := g.Nodes[id].Box
		if err := r.f64s(s.pot[box.Lo:box.Hi]); err != nil {
			return nil, err
		}
		if s.grad != nil {
			var v [3]float64
			for j := box.Lo; j < box.Hi; j++ {
				if err := r.f64s(v[:]); err != nil {
					return nil, err
				}
				s.grad[j] = geom.Point{X: v[0], Y: v[1], Z: v[2]}
			}
		}
		ids = append(ids, int32(id))
	}
	return ids, r.done()
}
