package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
)

// The data-plane payload decoders under arbitrary bytes (wire.go: "errors,
// never panics"). A frame that reaches them passed the codec's CRC, which
// says it was not damaged on the way, not that its sender is sane.

// wireFixture is a small fixed plan's state, which the decoders write into,
// with an expansion-carrying node and a target node to encode parcels of.
type wireFixture struct {
	st   *state
	m, t *dag.Node // an M node with out edges, a target node
}

func newWireFixture(tb testing.TB, gradient bool) *wireFixture {
	tb.Helper()
	sp := points.Generate(points.Cube, 96, 1)
	tp := points.Generate(points.Cube, 96, 2)
	plan, err := NewPlan(sp, tp, kernel.NewLaplace(3), Options{Method: dag.Basic, Threshold: 12})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := plan.newState(gradient)
	if err != nil {
		tb.Fatal(err)
	}
	fx := &wireFixture{st: st}
	nodes := plan.Graph.Nodes
	i := slices.IndexFunc(nodes, func(n dag.Node) bool { return n.Kind == dag.NodeM && len(n.Out) >= 2 })
	j := slices.IndexFunc(nodes, func(n dag.Node) bool { return n.Kind == dag.NodeT && n.Box.Hi-n.Box.Lo >= 2 })
	if i < 0 || j < 0 {
		tb.Fatal("the fixture plan has no M node with two out edges or no target node with two points")
	}
	fx.m, fx.t = &nodes[i], &nodes[j]
	return fx
}

type wireSeed struct {
	name string
	data []byte
	ok   bool // the decoder accepts it
}

func patchU32(b []byte, off int, v uint32) []byte {
	out := slices.Clone(b)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// parcelSeeds: a golden parcel of the fixture's M node, one of its target
// node (the gather), and the ways a hostile or damaged one goes wrong.
func (fx *wireFixture) parcelSeeds() []wireSeed {
	for i := range fx.st.exp[fx.m.ID] {
		fx.st.exp[fx.m.ID][i] = complex(float64(i)+0.5, -float64(i))
	}
	for i := range fx.st.pot {
		fx.st.pot[i] = float64(i) / 8
	}
	for i := range fx.st.grad {
		fx.st.grad[i] = geom.Point{X: float64(i), Y: -0.5, Z: 0.25}
	}
	golden := fx.st.encodeParcel(fx.m, []int32{1, 0})
	target := fx.st.encodeParcel(fx.t, nil)
	withEdge := slices.Concat(patchU32(target[:8], 4, 1), []byte{0, 0, 0, 0}, target[8:])
	return []wireSeed{
		{"golden-parcel", golden, true},
		{"truncated-vector", golden[:len(golden)-5], false},
		{"truncated-edge-list", golden[:8+4], false},
		{"trailing-bytes", append(slices.Clone(golden), 0), false},
		{"node-out-of-range", patchU32(golden, 0, uint32(len(fx.st.p.Graph.Nodes))), false},
		{"edge-index-beyond-out", patchU32(golden, 8, uint32(len(fx.m.Out))), false},
		{"oversized-edge-count", patchU32(golden, 4, 0xffffffff), false},
		{"more-edges-than-the-node-has", patchU32(golden, 4, uint32(len(fx.m.Out))+1), false},
		{"golden-target", target, true},
		{"target-truncated-potentials", target[:len(target)-3], false},
		{"target-trailing-bytes", append(slices.Clone(target), 0), false},
		{"target-with-an-edge", withEdge, false},
	}
}

// decodeParcel is fabric.handleParcel's decode: header, then the node payload.
func (fx *wireFixture) decodeParcel(data []byte) (*dag.Node, []int32, error) {
	r := amt.NewCursor(data)
	src, outIdx, err := decodeParcelHeader(fx.st.p.Graph, &r)
	if err != nil {
		return nil, outIdx, err
	}
	n := &fx.st.p.Graph.Nodes[src]
	fx.st.installNodePayload(n, &r)
	return n, outIdx, r.Done()
}

func checkParcel(t *testing.T, fx *wireFixture, data []byte) error {
	n, outIdx, err := fx.decodeParcel(data)
	if 4*cap(outIdx) > len(data) {
		t.Fatalf("%d-byte parcel sized an edge list of %d", len(data), cap(outIdx))
	}
	if err != nil {
		return err
	}
	for _, j := range outIdx {
		if int(j) >= len(n.Out) {
			t.Fatalf("edge index %d accepted for node %d, which has %d out edges", j, n.ID, len(n.Out))
		}
	}
	if enc := fx.st.encodeParcel(n, outIdx); !bytes.Equal(enc, data) {
		t.Fatalf("parcel: encode(decode(x)) != x:\n got %x\nwant %x", enc, data)
	}
	return nil
}

// FuzzDecodeParcel: never panic, never size anything from a count the
// payload advertises beyond its own length, accept only in-range nodes and
// edges, and only the canonical encoding — on a plain and a gradient state,
// whose target parcels differ in length.
func FuzzDecodeParcel(f *testing.F) {
	plain, grad := newWireFixture(f, false), newWireFixture(f, true)
	for _, fx := range []*wireFixture{plain, grad} {
		for _, seed := range fx.parcelSeeds() {
			f.Add(fx == grad, seed.data)
		}
	}
	f.Fuzz(func(t *testing.T, gradient bool, data []byte) {
		fx := plain
		if gradient {
			fx = grad
		}
		checkParcel(t, fx, data)
	})
}

// The seeds decode as their names say, and with REGEN_FUZZ_CORPUS=1 they
// are (re)written as the checked-in corpus.
func TestWireSeeds(t *testing.T) {
	write := func(target, name string, body string) {
		if os.Getenv("REGEN_FUZZ_CORPUS") != "1" {
			return
		}
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte("go test fuzz v1\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	quote := func(b []byte) string { return "[]byte(" + strconv.Quote(string(b)) + ")\n" }
	plain, grad := newWireFixture(t, false), newWireFixture(t, true)
	for _, fx := range []*wireFixture{plain, grad} {
		for _, seed := range fx.parcelSeeds() {
			if err := checkParcel(t, fx, seed.data); (err == nil) != seed.ok {
				t.Errorf("parcel %s (gradient %v): %v", seed.name, fx == grad, err)
			}
			if fx == plain {
				write("FuzzDecodeParcel", seed.name, "bool(false)\n"+quote(seed.data))
			}
		}
	}
}
