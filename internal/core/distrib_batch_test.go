package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
)

// farSpy is one rank's kernel that counts, by class, the far field's
// per-edge applies and the member edges its batched applies take — a
// plane-wave member once per direction it carries.
type farSpy struct {
	kernel.Kernel
	perEdge, members [dag.NumOpKinds]atomic.Int64
}

func (k *farSpy) M2L(from, to geom.Point, side float64, in, out []complex128) {
	k.perEdge[dag.OpM2L].Add(1)
	k.Kernel.M2L(from, to, side, in, out)
}

func (k *farSpy) M2I(dir geom.Direction, level int, in, out []complex128) {
	k.perEdge[dag.OpM2I].Add(1)
	k.Kernel.M2I(dir, level, in, out)
}

func (k *farSpy) I2L(dir geom.Direction, level int, in, out []complex128) {
	k.perEdge[dag.OpI2L].Add(1)
	k.Kernel.I2L(dir, level, in, out)
}

func (k *farSpy) M2LBatch(offs []kernel.M2LOffset, side float64, level int, ins, outs [][]complex128) {
	k.members[dag.OpM2L].Add(int64(len(ins)))
	k.Kernel.M2LBatch(offs, side, level, ins, outs)
}

func (k *farSpy) M2IBatch(dir geom.Direction, level int, ins, outs [][]complex128) {
	k.members[dag.OpM2I].Add(int64(len(ins)))
	k.Kernel.M2IBatch(dir, level, ins, outs)
}

func (k *farSpy) I2LBatch(dir geom.Direction, level int, ins, outs [][]complex128) {
	k.members[dag.OpI2L].Add(int64(len(ins)))
	k.Kernel.I2LBatch(dir, level, ins, outs)
}

// Under a fabric the far field runs the batched path it runs in process:
// over two and three ranks, with list-2 M->L (Basic) and plane waves
// (Advanced), no rank applies an M->L, M->I or I->L edge by itself, and each
// rank's batches take exactly the far edges whose targets it hosts, sources
// on other ranks included, at 1e-12 of the sequential walker.
func TestDistRunBatchesTheFarField(t *testing.T) {
	n := 2000
	if raceEnabled {
		n /= 2
	}
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	inner := kernel.NewLaplace(kernel.OrderForDigits(3))
	far := []dag.OpKind{dag.OpM2L, dag.OpM2I, dag.OpI2L}
	for _, method := range []dag.Method{dag.Basic, dag.Advanced} {
		for _, world := range []int{2, 3} {
			t.Run(fmt.Sprintf("%v/%d ranks", method, world), func(t *testing.T) {
				opts := Options{Method: method, Threshold: 40}
				ref, err := NewPlan(sp, tp, inner, opts)
				if err != nil {
					t.Fatal(err)
				}
				dw := &distWorld{t: t, q: points.Charges(n, 3)}
				if dw.want, err = ref.EvaluateSequential(dw.q); err != nil {
					t.Fatal(err)
				}
				spies := make([]*farSpy, world)
				for r := range spies {
					spies[r] = &farSpy{Kernel: inner}
					plan, err := NewPlan(sp, tp, spies[r], opts)
					if err != nil {
						t.Fatal(err)
					}
					dw.plans = append(dw.plans, plan)
				}
				// want: per rank and class, the member applies of the far
				// edges whose targets the rank hosts.
				homes := ref.place(survivors(world, nil))
				want := make([][dag.NumOpKinds]int64, world)
				crossing := 0
				for i := range ref.Graph.Nodes {
					from := &ref.Graph.Nodes[i]
					for _, e := range from.Out {
						r, dirs := homes[e.To], 1
						switch e.Op {
						case dag.OpM2I:
							dirs = bits.OnesCount8(e.DirMask)
						case dag.OpI2L:
							dirs = bits.OnesCount8(from.OwnMask)
						case dag.OpM2L:
						default:
							continue
						}
						want[r][e.Op] += int64(dirs)
						if r != homes[i] {
							crossing++
						}
					}
				}
				for r := range want {
					if method == dag.Basic && want[r][dag.OpM2L] == 0 ||
						method == dag.Advanced && (want[r][dag.OpM2I] == 0 || want[r][dag.OpI2L] == 0) {
						t.Fatalf("fixture: rank %d hosts far targets %v", r, want[r])
					}
				}
				if crossing == 0 {
					t.Fatal("fixture: no far edge crosses ranks")
				}

				pots, _, errs := dw.run(distCtx(t), distClusters(t, world), distOpts)
				assertSurvivorsOK(t, errs)
				assertSame(t, pots, dw.want, 1e-12)
				for r, k := range spies {
					for _, op := range far {
						if got := k.perEdge[op].Load(); got != 0 {
							t.Errorf("rank %d applied %d %v edges one by one", r, got, op)
						}
						if got := k.members[op].Load(); got != want[r][op] {
							t.Errorf("rank %d's batches applied %d %v members, want %d: the far edges whose targets it hosts",
								r, got, op, want[r][op])
						}
					}
				}
			})
		}
	}
}

// A distributed run builds its executor afresh, and nothing of it may
// outlive the run: thirty jobs back to back on a standing two-rank Advanced
// cluster leave the live heap, after one collection, within 1 MB of where
// the first left it. Scratch kept in a sync.Pool would not pass: a pool
// stays on the runtime's pool list until the collection after its last use,
// pinning whatever holds it, so with collection off between the runs one
// collection at the end would find every run's executors pinned. Each
// reading is taken at once: a stopped retransmission timer may stay in the
// runtime's timer heap until its deadline, but its settled parcel keeps
// neither the parcel nor the run's runtime (amt's TestAckedParcelsPinNothing).
func TestDistRunsLeaveNoScratchBehind(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is not meaningful under the race detector")
	}
	dw := newDistWorld(t, 2, 1500)
	cls := distClusters(t, 2)
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	dw.runJob(t, cls)
	base := live()
	gc := debug.SetGCPercent(-1)
	for range 29 {
		pots, _ := dw.runJob(t, cls)
		assertSame(t, pots, dw.want, 1e-12)
	}
	debug.SetGCPercent(gc)
	growth := live() - base
	runtime.KeepAlive(dw) // or its plans are garbage too
	t.Logf("live heap grew by %d KB over 29 runs", growth>>10)
	if growth > 1<<20 {
		t.Errorf("29 DistRuns after the first grew the live heap by %d bytes, more than 1 MB", growth)
	}
}
