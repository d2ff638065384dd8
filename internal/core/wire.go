package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/geom"
)

// Typed wire payloads for multi-process evaluation (distrib.go). A parcel
// carries values: the source node's payload plus the indexes of the
// out-edges the receiver must apply. The receiver installs the payload into
// its own state's buffers for that node — state.apply then reads it exactly
// as it would a local payload, so the operator semantics stay
// single-definition. A target node's parcel, with no edges, is the gather:
// its potentials go to rank 0. Every decoder is length-checked and errors
// (never panics) on truncated or malformed input; the sizes are implied by
// the shared Plan, which all ranks build identically.

// wireKindParcel, the one application payload kind carried in
// amt.Frame.Kind (below the amt control-plane range 0xff00), is one
// coalesced node parcel: source node payload plus the out-edge indexes bound
// for the destination rank.
const wireKindParcel uint16 = 2

var le = binary.LittleEndian

// appendNodePayload serializes the live payload of one node: an expansion
// node's coefficient vectors in the order of state.vectors, a T node's
// potentials and then, in a gradient run, its gradients. Their lengths are
// implied by the node's kind, box and masks plus the kernel sizes, all of
// which every rank derives from the shared Plan; S nodes carry nothing
// (every rank starts its run with the charge vector).
func (s *state) appendNodePayload(n *dag.Node, buf []byte) []byte {
	if n.Kind == dag.NodeT {
		b := n.Box
		buf = amt.AppendF64s(buf, s.pot[b.Lo:b.Hi]...)
		if s.grad != nil {
			for _, g := range s.grad[b.Lo:b.Hi] {
				buf = amt.AppendF64s(buf, g.X, g.Y, g.Z)
			}
		}
		return buf
	}
	for _, v := range s.vectors(n.ID) {
		buf = amt.AppendC128s(buf, v)
	}
	return buf
}

// installNodePayload decodes a node payload into this rank's copy of the
// node's buffers (sized at newState from the same plan, so the shapes
// match by construction; mismatches mean a corrupt or foreign frame and
// surface in the cursor). Callers serialize against readers of the node's
// payload via the node's lock.
func (s *state) installNodePayload(n *dag.Node, r *amt.Cursor) {
	if n.Kind == dag.NodeT {
		b := n.Box
		r.F64s(s.pot[b.Lo:b.Hi])
		var v [3]float64
		for j := b.Lo; j < b.Hi && s.grad != nil; j++ {
			if r.F64s(v[:]); !r.Short() {
				s.grad[j] = geom.Point{X: v[0], Y: v[1], Z: v[2]}
			}
		}
		return
	}
	for _, v := range s.vectors(n.ID) {
		r.C128s(v)
	}
}

// encodeParcel serializes one coalesced node parcel: the source node, the
// global edge indexes bound for the destination (dedup keys at the
// receiver), and the node payload.
func (s *state) encodeParcel(n *dag.Node, outIdx []int32) []byte {
	buf := make([]byte, 0, 8+4*len(outIdx)+int(n.Bytes))
	buf = le.AppendUint32(buf, uint32(n.ID))
	buf = le.AppendUint32(buf, uint32(len(outIdx)))
	for _, j := range outIdx {
		buf = le.AppendUint32(buf, uint32(j))
	}
	return s.appendNodePayload(n, buf)
}

// decodeParcelHeader reads the source node and out-edge list of a parcel,
// leaving the cursor at the node payload.
func decodeParcelHeader(g *dag.Graph, r *amt.Cursor) (src int32, outIdx []int32, err error) {
	s := r.U32()
	if int(s) >= len(g.Nodes) {
		return 0, nil, fmt.Errorf("core: parcel source node %d out of range", s)
	}
	nOut := len(g.Nodes[s].Out)
	ne := r.Count(4)
	if ne > nOut {
		return 0, nil, fmt.Errorf("core: parcel carries %d edges, node %d has %d", ne, s, nOut)
	}
	outIdx = make([]int32, ne)
	for i := range outIdx {
		j := r.U32()
		if int(j) >= nOut {
			return 0, nil, fmt.Errorf("core: parcel edge index %d out of range for node %d", j, s)
		}
		outIdx[i] = int32(j)
	}
	if r.Short() {
		return 0, nil, r.Done()
	}
	return int32(s), outIdx, nil
}
