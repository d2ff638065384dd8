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
	"repro/internal/kernel"
	"repro/internal/points"
)

// The data-plane payload decoders under arbitrary bytes (wire.go: "errors,
// never panics"). A frame that reaches them passed the codec's CRC, which
// says it was not damaged on the way, not that its sender is sane.

// wireFixture is rank 0's side of a two-rank run on a small fixed plan: the
// state the decoders write into and the fabric that counts what they refuse.
type wireFixture struct {
	st *state
	fb *fabric
	m  *dag.Node // an expansion-carrying node with out edges
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
	addr := filepath.Join(tb.TempDir(), "rank0.sock")
	cl, err := amt.NewCluster(amt.ClusterConfig{Rank: 0, World: 2, Network: "unix", Addr: addr, Stamp: "wire-fuzz"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	fx := &wireFixture{st: st, fb: newFabric(newExecutor(st, localities(2)), cl, DistOptions{}.withDefaults())}
	i := slices.IndexFunc(plan.Graph.Nodes, func(n dag.Node) bool { return n.Kind == dag.NodeM && len(n.Out) >= 2 })
	if i < 0 {
		tb.Fatal("the fixture plan has no M node with two out edges")
	}
	fx.m = &plan.Graph.Nodes[i]
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

// parcelSeeds: a golden parcel of the fixture's M node and the ways a
// hostile or damaged one goes wrong.
func (fx *wireFixture) parcelSeeds() []wireSeed {
	for i := range fx.st.exp[fx.m.ID] {
		fx.st.exp[fx.m.ID][i] = complex(float64(i)+0.5, -float64(i))
	}
	golden := fx.st.encodeParcel(fx.m, []int32{1, 0})
	return []wireSeed{
		{"golden-parcel", golden, true},
		{"truncated-vector", golden[:len(golden)-5], false},
		{"truncated-edge-list", golden[:8+4], false},
		{"trailing-bytes", append(slices.Clone(golden), 0), false},
		{"node-out-of-range", patchU32(golden, 0, uint32(len(fx.st.p.Graph.Nodes))), false},
		{"edge-index-beyond-out", patchU32(golden, 8, uint32(len(fx.m.Out))), false},
		{"oversized-edge-count", patchU32(golden, 4, 0xffffffff), false},
		{"more-edges-than-the-node-has", patchU32(golden, 4, uint32(len(fx.m.Out))+1), false},
	}
}

// resultSeeds: a golden report of two target nodes, and what can be wrong
// with one. The oversized count is the frame that used to take rank 0 down:
// twelve bytes asking for a 16 GiB id list.
func (fx *wireFixture) resultSeeds() []wireSeed {
	for i := range fx.st.pot {
		fx.st.pot[i] = float64(i) / 8
	}
	ids := fx.fb.tnodes[:2]
	golden := fx.st.encodeResult(ids)
	flag := uint32(0)
	if fx.st.grad == nil {
		flag = 1
	}
	return []wireSeed{
		{"golden-result", golden, true},
		{"truncated-potentials", golden[:len(golden)-3], false},
		{"trailing-bytes", append(slices.Clone(golden), 0), false},
		{"oversized-count", []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, false},
		{"more-nodes-than-the-plan-has-targets", patchU32(golden, 4, uint32(len(fx.fb.tnodes))+1), false},
		{"not-a-target-node", patchU32(golden, 8, uint32(fx.m.ID)), false},
		{"node-out-of-range", patchU32(golden, 8, 0xfffffff0), false},
		{"gradient-flag-contradicts-the-state", patchU32(golden, 0, flag), false},
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
// edges, and only the canonical encoding.
func FuzzDecodeParcel(f *testing.F) {
	fx := newWireFixture(f, false)
	for _, seed := range fx.parcelSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkParcel(t, fx, data) })
}

// checkResult runs one report through the decoder and then, as a frame,
// through rank 0's gather.
func checkResult(t *testing.T, fx *wireFixture, data []byte) error {
	ids, err := fx.st.installResult(data, len(fx.fb.tnodes))
	if 4*cap(ids) > len(data) || cap(ids) > len(fx.fb.tnodes) {
		t.Fatalf("%d-byte report sized an id list of %d (the plan has %d target nodes)", len(data), cap(ids), len(fx.fb.tnodes))
	}
	covered, refused := len(fx.fb.covered), fx.fb.decodeErrs.Load()
	fx.fb.handleResult(amt.Frame{Kind: wireKindResult, Payload: data})
	if err != nil {
		if len(fx.fb.covered) != covered || fx.fb.decodeErrs.Load() != refused+1 {
			t.Fatalf("refused report (%v): coverage %d -> %d, decode errors %d -> %d", err, covered, len(fx.fb.covered), refused, fx.fb.decodeErrs.Load())
		}
		return err
	}
	for _, id := range ids {
		if fx.st.p.Graph.Nodes[id].Kind != dag.NodeT || !fx.fb.covered[id] {
			t.Fatalf("accepted report: node %d is a target %v, covered %v", id, fx.st.p.Graph.Nodes[id].Kind == dag.NodeT, fx.fb.covered[id])
		}
	}
	// What was installed is what a re-report would carry.
	again, err := fx.st.installResult(fx.st.encodeResult(ids), len(fx.fb.tnodes))
	if err != nil || !slices.Equal(again, ids) {
		t.Fatalf("re-decoding a report the codec produced: ids %v -> %v, %v", ids, again, err)
	}
	return nil
}

// FuzzDecodeResult: never panic, never size the id list from the advertised
// count beyond the payload's length or the plan's target nodes, and a
// refused report is counted and covers nothing.
func FuzzDecodeResult(f *testing.F) {
	plain, grad := newWireFixture(f, false), newWireFixture(f, true)
	for _, fx := range []*wireFixture{plain, grad} {
		for _, seed := range fx.resultSeeds() {
			f.Add(fx == grad, seed.data)
		}
	}
	f.Fuzz(func(t *testing.T, gradient bool, data []byte) {
		fx := plain
		if gradient {
			fx = grad
		}
		checkResult(t, fx, data)
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
	for _, seed := range plain.parcelSeeds() {
		if err := checkParcel(t, plain, seed.data); (err == nil) != seed.ok {
			t.Errorf("parcel %s: %v", seed.name, err)
		}
		write("FuzzDecodeParcel", seed.name, quote(seed.data))
	}
	for _, fx := range []*wireFixture{plain, grad} {
		for _, seed := range fx.resultSeeds() {
			if err := checkResult(t, fx, seed.data); (err == nil) != seed.ok {
				t.Errorf("result %s (gradient %v): %v", seed.name, fx == grad, err)
			}
			if fx == plain {
				write("FuzzDecodeResult", seed.name, "bool(false)\n"+quote(seed.data))
			}
		}
	}
}
