// Command dashmm-bench regenerates the utilization figures of the paper:
//
//	-fig4   Figure 4: total utilization fraction f_k over 100 uniform
//	        intervals for runs on 64, 128 and 512 cores (cube data, Laplace
//	        kernel; the paper uses 30M points — scale with -n).
//	-fig5   Figure 5: utilization fraction by operator class for the
//	        128-core run, grouped into the three panels of the paper: the
//	        operations up the source tree, the operations bridging the
//	        trees, and the operations producing the target values.
//	-real   run the goroutine runtime on this machine instead of the
//	        simulator and report measured utilization: -locs N splits the
//	        workers across N shared-memory localities of this process, -net
//	        tcp|unix forks them as N real rank processes over a socket mesh
//	        (where the fault and kill knobs apply).
//
// The simulated runs replay the explicit DAG under the Table II cost model
// with HPX-5-style oblivious FIFO scheduling (see DESIGN.md), which is what
// reproduces the end-of-run starvation dip the paper diagnoses.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/amt"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/sim"
	"repro/internal/trace"
)

const coresPerLocality = 32

func main() {
	var (
		n        = flag.Int("n", 300000, "points per ensemble (paper: 30M)")
		fig4     = flag.Bool("fig4", false, "total utilization for 64/128/512 cores")
		fig5     = flag.Bool("fig5", false, "per-class utilization at 128 cores")
		real     = flag.Bool("real", false, "measure the real runtime on this machine instead of simulating")
		traceOut = flag.String("trace-out", "", "with -real: write the event trace as JSON lines to this file (read it back with cmd/traceview)")
		digits   = flag.Int("digits", 3, "accuracy digits")
		thr      = flag.Int("threshold", 60, "refinement threshold")

		locs = flag.Int("locs", 1, "with -real: localities to split the workers across")

		// Multi-process mode: -net forks -locs real OS processes joined over
		// a socket mesh. The fault knobs wrap every rank's outbound frame
		// wire in an amt.FaultyTransport under the reliable ack/retry
		// delivery engine; -kill-rank SIGKILLs that worker process at
		// -kill-at of its local progress. The run must still verify, and the
		// transport and recovery counters are reported.
		netMode   = flag.String("net", "", "with -real: run -locs separate processes over this network (tcp|unix)")
		drop      = flag.Float64("drop", 0, "with -net: frame drop probability")
		dup       = flag.Float64("dup", 0, "with -net: frame duplication probability")
		reorder   = flag.Bool("reorder", false, "with -net: randomly reorder frame arrivals")
		slowRank  = flag.Int("slow-rank", -1, "with -net: rank to pause (requires -slow-delay)")
		slowDelay = flag.Duration("slow-delay", 0, "with -net: extra delay per frame to/from -slow-rank")
		faultSeed = flag.Int64("fault-seed", 1, "with -net: fault RNG seed")
		killRank  = flag.Int("kill-rank", -1, "with -net: worker rank to SIGKILL mid-run")
		killAt    = flag.Float64("kill-at", 0.5, "with -net: local progress fraction at which -kill-rank dies")

		distRank = flag.Int("dist-rank", -1, "internal: rank of a forked -net worker process")
		distAddr = flag.String("dist-addr", "", "internal: coordinator address for a forked -net worker")
	)
	flag.Parse()
	if !*fig4 && !*fig5 && !*real {
		*fig4, *fig5 = true, true
	}
	// The fault and kill knobs exist only on the frame wire between rank
	// processes; the set ones are forwarded verbatim to the forked workers.
	var wireArgs []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "drop", "dup", "reorder", "slow-rank", "slow-delay", "fault-seed", "kill-rank", "kill-at":
			if *netMode == "" {
				log.Fatalf("-%s needs -net: faults and kills are injected between rank processes", f.Name)
			}
			wireArgs = append(wireArgs, "-"+f.Name+"="+f.Value.String())
		}
	})
	var fault *amt.FaultProfile
	if *drop > 0 || *dup > 0 || *reorder || (*slowRank >= 0 && *slowDelay > 0) {
		fault = &amt.FaultProfile{
			Seed: *faultSeed, Drop: *drop, Duplicate: *dup, Reorder: *reorder,
			SlowRank: *slowRank, SlowDelay: *slowDelay,
		}
	}

	sp := points.Generate(points.Cube, *n, 1)
	tp := points.Generate(points.Cube, *n, 2)
	k := kernel.NewLaplace(kernel.OrderForDigits(*digits))
	plan, err := core.NewPlan(sp, tp, k, core.Options{Threshold: *thr})
	if err != nil {
		log.Fatal(err)
	}
	if *distRank > 0 {
		os.Exit(runDistWorker(plan, *distRank, *locs, *netMode, *distAddr,
			distStamp(*n, *digits, *thr, *locs), fault, *killRank, *killAt))
	}
	fmt.Printf("# dashmm-bench: N=%d, %d DAG nodes, %d edges\n",
		*n, len(plan.Graph.Nodes), plan.Graph.NumEdges())

	if *real && *netMode != "" {
		runDistCoordinator(plan, *n, *netMode, *locs, fault, *killRank, wireArgs, *digits, *thr)
		return
	}
	if *real {
		runReal(plan, *n, *traceOut, *locs)
	}

	cm := sim.PaperCostModel()
	if *fig4 {
		fmt.Printf("\n# Figure 4: total utilization fraction f_k, 100 intervals, cube Laplace\n")
		fmt.Printf("%4s %10s %10s %10s\n", "k", "n=64", "n=128", "n=512")
		var series [][]float64
		for _, cores := range []int{64, 128, 512} {
			u, r := simulate(plan.Graph, cm, cores)
			series = append(series, u.Total)
			first, last, plateau, found := u.Starvation(0.7)
			fmt.Printf("# n=%d: makespan %.3fs, plateau f=%.2f, dip=%v",
				cores, r.Makespan/1e9, plateau, found)
			if found {
				fmt.Printf(" at k=[%d,%d] (width %d%%)", first, last, last-first+1)
			}
			fmt.Println()
		}
		for kk := 0; kk < 100; kk++ {
			fmt.Printf("%4d %10.4f %10.4f %10.4f\n", kk, series[0][kk], series[1][kk], series[2][kk])
		}
	}

	if *fig5 {
		fmt.Printf("\n# Figure 5: utilization fraction by class, 128 cores, 100 intervals\n")
		u, _ := simulate(plan.Graph, cm, 128)
		panels := []struct {
			name string
			ops  []dag.OpKind
		}{
			{"up the source tree", []dag.OpKind{dag.OpS2M, dag.OpM2M}},
			{"source tree to target tree", []dag.OpKind{dag.OpM2I, dag.OpI2I, dag.OpI2L}},
			{"final target values", []dag.OpKind{dag.OpS2T, dag.OpL2L, dag.OpL2T}},
		}
		for _, p := range panels {
			fmt.Printf("\n## panel: %s\n%4s", p.name, "k")
			for _, op := range p.ops {
				fmt.Printf(" %10s", op)
			}
			fmt.Println()
			for kk := 0; kk < 100; kk++ {
				fmt.Printf("%4d", kk)
				for _, op := range p.ops {
					v := 0.0
					if s := u.ByClass[uint8(op)]; s != nil {
						v = s[kk]
					}
					fmt.Printf(" %10.4f", v)
				}
				fmt.Println()
			}
			// Last interval where each class is active: the paper's point
			// is that S->M / M->M stretch deep into the run under oblivious
			// scheduling.
			for _, op := range p.ops {
				lastK := -1
				if s := u.ByClass[uint8(op)]; s != nil {
					for kk, v := range s {
						if v > 1e-6 {
							lastK = kk
						}
					}
				}
				fmt.Printf("# %v last active at k=%d\n", op, lastK)
			}
		}
	}
}

// distStamp encodes the binary's scenario parameters into the handshake
// stamp, so a worker built from different flags (or a different binary) is
// rejected at join instead of silently computing a different DAG.
func distStamp(n, digits, thr, locs int) string {
	return fmt.Sprintf("dashmm-bench/n=%d,digits=%d,thr=%d,locs=%d", n, digits, thr, locs)
}

// distHeartbeat is the multi-process failure detector: 500ms of silence
// before a verdict, slack enough for a loaded CI runner hosting every rank.
func distHeartbeat() amt.FailureDetectorConfig {
	return amt.FailureDetectorConfig{Interval: 50 * time.Millisecond, MissedBeats: 10}
}

// distWorkers splits the machine's cores across the ranks.
func distWorkers(locs int) int {
	w := runtime.GOMAXPROCS(0) / locs
	if w < 1 {
		w = 1
	}
	return w
}

// coordinatorAddr picks rank 0's well-known address before the workers are
// forked: a tmpdir socket for unix, a just-probed free loopback port for tcp.
func coordinatorAddr(network string) string {
	switch network {
	case "unix":
		return filepath.Join(os.TempDir(), fmt.Sprintf("dashmm-bench-%d.sock", os.Getpid()))
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	log.Fatalf("unknown -net %q (want tcp or unix)", network)
	return ""
}

// runDistCoordinator is rank 0 of a multi-process run: it forks the worker
// ranks as child processes of this same binary, evaluates over the socket
// mesh, verifies the gathered potentials against the sequential evaluation
// at 1e-12, and reports the transport and recovery counters.
func runDistCoordinator(plan *core.Plan, n int, network string, locs int, fault *amt.FaultProfile, killRank int, wireArgs []string, digits, thr int) {
	if locs < 2 {
		log.Fatal("-net requires -locs >= 2")
	}
	if killRank >= 0 && (killRank == 0 || killRank >= locs) {
		log.Fatalf("-kill-rank %d: must be a worker rank in 1..%d", killRank, locs-1)
	}
	addr := coordinatorAddr(network)
	if network == "unix" {
		defer os.Remove(addr)
	}
	cl, err := amt.NewCluster(amt.ClusterConfig{
		Rank: 0, World: locs, Network: network, Addr: addr,
		Stamp: distStamp(n, digits, thr, locs), Heartbeat: distHeartbeat(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	kids := make([]*exec.Cmd, 0, locs-1)
	for r := 1; r < locs; r++ {
		cmd := exec.Command(self, append([]string{
			"-dist-rank", strconv.Itoa(r), "-dist-addr", addr,
			"-net", network, "-locs", strconv.Itoa(locs),
			"-n", strconv.Itoa(n), "-digits", strconv.Itoa(digits), "-threshold", strconv.Itoa(thr),
		}, wireArgs...)...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("fork rank %d: %v", r, err)
		}
		kids = append(kids, cmd)
	}

	q := points.Charges(n, 3)
	got, rep, err := core.DistRun(plan, cl, q, core.DistOptions{
		Workers: distWorkers(locs), Seed: 1, Timeout: 5 * time.Minute, Fault: fault,
	})
	for i, cmd := range kids {
		werr := cmd.Wait()
		rank := i + 1
		if rank == killRank {
			fmt.Printf("# rank %d (victim) exited: %v\n", rank, werr)
			continue
		}
		if werr != nil {
			log.Fatalf("rank %d exited: %v", rank, werr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n# distributed run: %d processes (%s) x %d workers, elapsed %v, %s\n",
		locs, network, rep.Workers, rep.Elapsed, rep.Runtime)
	ts := rep.Runtime.Transport
	fmt.Printf("# wire: messages=%d bytes-out=%d bytes-in=%d reconnects=%d handshake-failures=%d\n",
		ts.WireMessages, ts.BytesOut, ts.BytesIn, ts.Reconnects, ts.HandshakeFailures)
	fmt.Printf("# delivery: sent=%d acked=%d retried=%d delivered=%d deduped=%d deadline-exceeded=%d dropped=%d duplicated=%d\n",
		ts.Sent, ts.Acked, ts.Retried, ts.Delivered, ts.Deduped, ts.DeadlineExceeded, ts.Dropped, ts.Duplicated)
	r := rep.Recovery
	fmt.Printf("# recovery: ranks-killed=%d subgraph-nodes-reexecuted=%d edges-replayed=%d\n",
		r.RanksKilled, r.NodesRebuilt, r.EdgesReplayed)

	want, err := plan.EvaluateSequential(q)
	if err != nil {
		log.Fatal(err)
	}
	var den, worst float64
	for i := range want {
		if m := math.Abs(want[i]); m > den {
			den = m
		}
	}
	for i := range got {
		if e := math.Abs(got[i]-want[i]) / den; e > worst {
			worst = e
		}
	}
	if worst > 1e-12 {
		fmt.Printf("# dist: FAIL max relative error %.3e (gate 1e-12)\n", worst)
		os.Exit(1)
	}
	fmt.Printf("# dist: PASS max relative error %.3e (gate 1e-12)\n", worst)
}

// runDistWorker is one forked worker rank: join the cluster, evaluate, and
// — when chosen as the chaos victim — SIGKILL itself at the requested local
// progress fraction, leaving the survivors to detect and recover.
func runDistWorker(plan *core.Plan, rank, locs int, network, addr, stamp string, fault *amt.FaultProfile, killRank int, killAt float64) int {
	cl, err := amt.NewCluster(amt.ClusterConfig{
		Rank: rank, World: locs, Network: network, Addr: addr,
		Stamp: stamp, Heartbeat: distHeartbeat(),
	})
	if err != nil {
		log.Printf("rank %d join: %v", rank, err)
		return 1
	}
	defer cl.Close()
	opts := core.DistOptions{Workers: distWorkers(locs), Seed: int64(rank) + 1, Timeout: 5 * time.Minute, Fault: fault}
	if killRank == rank {
		opts.OnProgress = func(fired, owned int) {
			if owned > 0 && float64(fired) >= killAt*float64(owned) {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	if _, _, err := core.DistRun(plan, cl, nil, opts); err != nil {
		log.Printf("rank %d: %v", rank, err)
		return 1
	}
	return 0
}

// simulate runs the DAG on `cores` simulated cores (32 per locality) and
// returns the 100-interval utilization analysis.
func simulate(g *dag.Graph, cm sim.CostModel, cores int) (*trace.Utilization, sim.Result) {
	L := cores / coresPerLocality
	if L < 1 {
		L = 1
	}
	dist.MinComm{}.Assign(g, L)
	r := sim.Run(g, sim.Config{
		Localities: L, Cores: cores / L, Model: cm, Sched: sim.FIFO, CollectEvents: true,
	})
	u := trace.Analyze(r.Events, cores, 100, 0, int64(r.Makespan))
	return u, r
}

// runReal executes the DAG on the goroutine runtime of this machine
// (optionally split across shared-memory localities) and prints measured
// utilization and per-op averages.
func runReal(plan *core.Plan, n int, traceOut string, locs int) {
	if locs < 1 {
		locs = 1
	}
	w := runtime.GOMAXPROCS(0) / locs
	if w < 1 {
		w = 1
	}
	q := points.Charges(n, 3)
	tr := trace.New(locs * w)
	_, rep, err := plan.Evaluate(q, core.ExecOptions{
		Localities: locs, Workers: w, Tracer: tr,
	})
	if err != nil {
		log.Fatal(err)
	}
	events := tr.Snapshot()
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteJSON(f, events); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# trace written to %s (%d events)\n", traceOut, len(events))
	}
	totalW := locs * w
	fmt.Printf("\n# real runtime: %d localities x %d workers, elapsed %v, %s\n",
		locs, w, rep.Elapsed, rep.Runtime)
	start, end := trace.Span(events)
	u := trace.Analyze(events, totalW, 100, start, end)
	var avg float64
	for _, v := range u.Total {
		avg += v
	}
	fmt.Printf("# measured mean utilization: %.2f (paper: ~0.98 single locality)\n", avg/100)
	fmt.Printf("# per-op averages [µs]:\n")
	am := trace.AvgMicrosByClass(events)
	var ops []int
	for c := range am {
		ops = append(ops, int(c))
	}
	sort.Ints(ops)
	for _, c := range ops {
		fmt.Printf("#   %-5v %10.2f\n", dag.OpKind(c), am[uint8(c)])
	}
	st := kernel.ShiftTableStats()
	fmt.Printf("# I->I shift table: slots=%d bytes=%d off-lattice-calls=%d\n", st.Slots, st.Bytes, st.OffLatticeCalls)
}
