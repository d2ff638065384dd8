package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/geom"
)

// Typed wire payloads for multi-process evaluation (distrib.go). A parcel
// carries values: the source node's expansion payload plus the indexes of
// the out-edges the receiver must apply. The receiver installs the payload
// into its own state's buffers for that node — state.apply then reads it
// exactly as it would a local payload, so the operator semantics stay
// single-definition. Every decoder is length-checked and errors (never
// panics) on truncated or malformed input; the sizes are implied by the
// shared Plan, which all ranks build identically.

// Application payload kinds carried in amt.Frame.Kind (must stay below the
// amt control-plane range 0xff00).
const (
	// wireKindParcel is one coalesced node parcel: source node payload plus
	// the out-edge indexes bound for the destination rank.
	wireKindParcel uint16 = 2
	// wireKindResult is a worker's completed-targets report to rank 0:
	// potentials (and gradients) of the T nodes it owns.
	wireKindResult uint16 = 3
)

var le = binary.LittleEndian

// appendNodePayload serializes the live expansion payload of one node: its
// coefficient vectors in the order of state.vectors. Their lengths are
// implied by the node's kind and masks plus the kernel sizes, all of which
// every rank derives from the shared Plan; S nodes carry nothing (every rank
// starts its run with the charge vector) and T nodes are sinks that never
// send.
func (s *state) appendNodePayload(n *dag.Node, buf []byte) []byte {
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

// encodeResult serializes the potentials (and gradients) of the given T
// nodes for the gather at rank 0.
func (s *state) encodeResult(ids []int32) []byte {
	g := s.p.Graph
	hasGrad := uint32(0)
	if s.grad != nil {
		hasGrad = 1
	}
	var buf []byte
	buf = le.AppendUint32(buf, hasGrad)
	buf = le.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		b := g.Nodes[id].Box
		buf = le.AppendUint32(buf, uint32(id))
		buf = amt.AppendF64s(buf, s.pot[b.Lo:b.Hi]...)
		if s.grad != nil {
			for _, gp := range s.grad[b.Lo:b.Hi] {
				buf = amt.AppendF64s(buf, gp.X, gp.Y, gp.Z)
			}
		}
	}
	return buf
}

// installResult decodes a completed-targets report into the gather state,
// returning the T node IDs it covered. Overwrites are idempotent: a repeated
// copy of a report carries the identical values.
// The id list is sized from a count that the payload's own length and the
// plan's target nodes both bound. A refused report covers nothing: what it
// wrote before the fault, the report that does cover those nodes overwrites.
func (s *state) installResult(b []byte, tnodes int) ([]int32, error) {
	g := s.p.Graph
	r := amt.NewCursor(b)
	if hasGrad := r.U32(); !r.Short() && (hasGrad == 1) != (s.grad != nil) {
		return nil, fmt.Errorf("core: result gradient flag %d mismatches plan", hasGrad)
	}
	count := r.Count(4)
	if count > tnodes {
		return nil, fmt.Errorf("core: result reports %d nodes, plan has %d target nodes", count, tnodes)
	}
	ids := make([]int32, 0, count)
	for len(ids) < count {
		id := r.U32()
		if r.Short() {
			break
		}
		if int(id) >= len(g.Nodes) || g.Nodes[id].Kind != dag.NodeT {
			return nil, fmt.Errorf("core: result node %d is not a target node", id)
		}
		box := g.Nodes[id].Box
		r.F64s(s.pot[box.Lo:box.Hi])
		var v [3]float64
		for j := box.Lo; j < box.Hi && s.grad != nil; j++ {
			if r.F64s(v[:]); !r.Short() {
				s.grad[j] = geom.Point{X: v[0], Y: v[1], Z: v[2]}
			}
		}
		ids = append(ids, int32(id))
	}
	return ids, r.Done()
}
