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
//	        simulator and report measured utilization: one locality of
//	        GOMAXPROCS workers, or with -locs N -net tcp|unix N rank
//	        processes over a socket mesh (where the fault and kill knobs
//	        apply). The run also checks the cost model from inside: the
//	        tuner's candidate ladder when -threshold is 0, and after the
//	        evaluation the predicted against the traced busy seconds of
//	        every operator class.
//
// The simulated runs replay the explicit DAG under the Table II cost model
// with HPX-5-style oblivious FIFO scheduling (see DESIGN.md), which is what
// reproduces the end-of-run starvation dip the paper diagnoses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
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
	"repro/internal/tree"
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
		thr      = flag.Int("threshold", 0, "refinement threshold (0: chosen by the cost model with -real, the paper's 60 for the figures)")
		distr    = flag.String("dist", "cube", "point distribution: cube | sphere | plummer")
		kern     = flag.String("kernel", "laplace", "kernel: laplace | yukawa")
		lambda   = flag.Float64("lambda", 4, "with -kernel yukawa: screening parameter")
		method   = flag.String("method", "advanced", "method: advanced | basic | barneshut")

		locs = flag.Int("locs", 1, "with -real -net: rank processes to split the workers across")

		// Multi-process mode: -net forks -locs real OS processes joined over
		// a socket mesh. The fault knobs wrap every rank's outbound frame
		// wire in an amt.FaultyTransport under the reliable ack/retry
		// delivery engine; -kill-rank SIGKILLs that worker process at
		// -kill-at of its local progress: the run fails on every survivor
		// and rank 0 re-runs it on them. The answer must still verify, and
		// the transport counters and the attempts it took are reported.
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
	if *real && *netMode == "" && *locs > 1 {
		log.Fatalf("-locs %d needs -net unix (or tcp): a process is one locality, so more are rank processes", *locs)
	}
	var fault *amt.FaultProfile
	if *drop > 0 || *dup > 0 || *reorder || (*slowRank >= 0 && *slowDelay > 0) {
		fault = &amt.FaultProfile{
			Seed: *faultSeed, Drop: *drop, Duplicate: *dup, Reorder: *reorder,
			SlowRank: *slowRank, SlowDelay: *slowDelay,
		}
	}

	if *thr == 0 && !*real {
		// The figures replay the paper's machine balance on the paper's tree.
		*thr = tree.Threshold
	}
	sc := scenario{n: *n, digits: *digits, dist: *distr, kernel: *kern, lambda: *lambda, method: *method}
	plan, err := sc.plan(*thr)
	if err != nil {
		log.Fatal(err)
	}
	// From here on the threshold is the plan's: forked ranks are handed the
	// resolved value and never tune.
	sc.threshold = plan.Threshold()
	if *distRank > 0 {
		os.Exit(runDistWorker(plan, sc, *distRank, *locs, *netMode, *distAddr,
			fault, *killRank, *killAt))
	}
	fmt.Printf("# dashmm-bench: N=%d %s %s %s, threshold %d, %d leaves to level %d, %d DAG nodes, %d edges, pair kernel %s, dense kernel %s\n",
		*n, *distr, plan.Kernel.Name(), plan.Graph.Method, plan.Threshold(),
		plan.Leaves(), plan.MaxLevel(),
		len(plan.Graph.Nodes), plan.Graph.NumEdges(), kernel.PairKernel(plan.Kernel), kernel.DenseKernel(plan.Kernel))
	printLadder(plan)

	if *real && *netMode != "" {
		os.Exit(runDistCoordinator(plan, sc, *netMode, *locs, fault, *killRank, wireArgs))
	}
	if *real {
		runReal(plan, sc, *traceOut)
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

// scenario is the problem the flags describe; every rank process of a -net
// run rebuilds it from the same values.
type scenario struct {
	n, digits, threshold int
	dist, kernel, method string
	lambda               float64
}

// plan builds the scenario's plan with the given threshold (0: tuned).
func (sc scenario) plan(threshold int) (*core.Plan, error) {
	d, err := points.ParseDistribution(sc.dist)
	if err != nil {
		return nil, err
	}
	k, err := kernel.New(sc.kernel, kernel.OrderForDigits(sc.digits), sc.lambda)
	if err != nil {
		return nil, err
	}
	m, err := dag.ParseMethod(sc.method)
	if err != nil {
		return nil, err
	}
	return core.NewPlan(points.Generate(d, sc.n, 1), points.Generate(d, sc.n, 2), k,
		core.Options{Method: m, Threshold: threshold})
}

// charges is the scenario's charge vector; every rank process of a -net run
// derives it here, so no two can differ.
func (sc scenario) charges() []float64 { return points.Charges(sc.n, 3) }

// args renders the scenario as the flags a forked rank is started with.
func (sc scenario) args() []string {
	return []string{
		"-n", strconv.Itoa(sc.n), "-digits", strconv.Itoa(sc.digits), "-threshold", strconv.Itoa(sc.threshold),
		"-dist", sc.dist, "-kernel", sc.kernel, "-lambda", strconv.FormatFloat(sc.lambda, 'g', -1, 64), "-method", sc.method,
	}
}

// stamp encodes the scenario into the handshake stamp, so a worker built
// from different flags (or a different binary) is rejected at join instead
// of silently computing a different DAG.
func (sc scenario) stamp(locs int) string {
	return fmt.Sprintf("dashmm-bench/%v,locs=%d", sc.args(), locs)
}

// printLadder prints the candidates the tuner priced for the plan: the
// predicted busy seconds of one evaluation per operator class, the chosen
// rung starred. Nothing is printed for an explicit threshold.
func printLadder(plan *core.Plan) {
	tn := plan.Tuning()
	if tn == nil {
		return
	}
	fmt.Printf("# leaf-size ladder (predicted busy s per class; tuner took %v):\n", tn.Elapsed.Round(10*time.Microsecond))
	fmt.Printf("#   %9s %7s %3s %9s", "threshold", "leaves", "lvl", "total")
	var used []dag.OpKind
	for op := dag.OpKind(0); op < dag.NumOpKinds; op++ {
		for _, c := range tn.Candidates {
			if c.Nanos[op] > 0 {
				used = append(used, op)
				fmt.Printf(" %8v", op)
				break
			}
		}
	}
	fmt.Println()
	for i, c := range tn.Candidates {
		mark := ' '
		if i == tn.Chosen {
			mark = '*'
		}
		fmt.Printf("# %c %9d %7d %3d %9.4f", mark, c.Threshold, c.Leaves, c.MaxLevel, c.Total()/1e9)
		for _, op := range used {
			fmt.Printf(" %8.4f", c.Nanos[op]/1e9)
		}
		fmt.Println()
	}
}

// printModelCheck holds the cost model against the traced run: predicted
// and traced busy seconds per operator class with their ratio — the
// in-program twin of the benchmark's "# ledger:" rows — and the critical
// path under the model, the slack the tuner does not price.
func printModelCheck(plan *core.Plan, events []trace.Event) {
	// A model calibrated on the trace predicts, per class, the trace's own
	// busy time.
	cal := sim.Calibrate(plan.Graph, events)
	traced := cal.Predict(plan.Graph)
	var busy float64
	for _, v := range traced {
		busy += v
	}
	pred := plan.Predicted()
	fmt.Printf("# cost model vs trace (busy seconds per class; threshold %d):\n", plan.Threshold())
	fmt.Printf("#   %-5s %10s %10s %7s %7s\n", "op", "predicted", "traced", "ratio", "share")
	for op := dag.OpKind(0); op < dag.NumOpKinds; op++ {
		if pred[op] == 0 && traced[op] == 0 {
			continue
		}
		fmt.Printf("#   %-5v %10.4f %10.4f %7.2f %6.1f%%\n", op, pred[op]/1e9, traced[op]/1e9, pred[op]/traced[op], 100*traced[op]/busy)
	}
	fmt.Printf("#   %-5s %10.4f %10.4f %7.2f\n", "total", plan.PredictedNanos()/1e9, busy/1e9, plan.PredictedNanos()/busy)
	crit, all := plan.Graph.CriticalPath(func(op dag.OpKind) float64 {
		return pred[op] / float64(plan.Graph.EdgeCount[op])
	})
	fmt.Printf("# critical path under the model: %.4f s of %.4f s (ratio %.4f)\n", crit/1e9, all/1e9, crit/all)
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
// forked: a socket in a fresh per-run temp dir for unix (every rank binds
// its own beside it), a just-probed free loopback port for tcp.
func coordinatorAddr(network string) string {
	switch network {
	case "unix":
		dir, err := os.MkdirTemp("", "dashmm-bench")
		if err != nil {
			log.Fatal(err)
		}
		return filepath.Join(dir, "coord.sock")
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
// mesh — one job per attempt, re-run on the survivors while a rank dies
// under it — verifies the gathered potentials against the sequential
// evaluation at 1e-12, and reports the transport counters and the attempts.
// It returns the process's exit status, having removed the unix sockets'
// per-run dir (a killed rank's socket included).
func runDistCoordinator(plan *core.Plan, sc scenario, network string, locs int, fault *amt.FaultProfile, killRank int, wireArgs []string) int {
	if locs < 2 {
		log.Fatal("-net requires -locs >= 2")
	}
	if killRank >= 0 && (killRank == 0 || killRank >= locs) {
		log.Fatalf("-kill-rank %d: must be a worker rank in 1..%d", killRank, locs-1)
	}
	addr := coordinatorAddr(network)
	if network == "unix" {
		defer os.RemoveAll(filepath.Dir(addr))
	}
	cl, err := amt.NewCluster(amt.ClusterConfig{
		Rank: 0, World: locs, Network: network, Addr: addr,
		Stamp: sc.stamp(locs), Heartbeat: distHeartbeat(), Fault: fault,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	defer cl.Close()

	self, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 1
	}
	kids := make([]*exec.Cmd, 0, locs-1)
	for r := 1; r < locs; r++ {
		args := append([]string{
			"-dist-rank", strconv.Itoa(r), "-dist-addr", addr,
			"-net", network, "-locs", strconv.Itoa(locs),
		}, sc.args()...)
		cmd := exec.Command(self, append(args, wireArgs...)...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Printf("fork rank %d: %v", r, err)
			return 1
		}
		kids = append(kids, cmd)
	}

	// The join barrier: a job frame reaches only the workers that have
	// joined.
	if err := cl.Start(); err != nil {
		log.Print(err)
		return 1
	}
	q := sc.charges()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	// The caller loop: a death fails the attempt on every rank, and the next
	// job is placed on the survivors. Each death shrinks the world, so at
	// most locs attempts; rank 0 can finish alone.
	start := time.Now()
	var got []float64
	var rep core.ExecReport
	var job *amt.Job
	attempts := 0
	for {
		attempts++
		if job, err = cl.StartJob(ctx, nil); err != nil {
			log.Print(err)
			return 1
		}
		got, rep, err = core.DistRun(ctx, plan, cl, q, core.ExecOptions{Workers: distWorkers(locs), Job: job})
		job.End()
		var lost *core.RankLostError
		if errors.As(err, &lost) && attempts < locs {
			fmt.Printf("# attempt %d: %v\n", attempts, err)
			continue
		}
		if err != nil {
			log.Print(err)
			return 1
		}
		break
	}
	answered := time.Since(start)
	cl.BroadcastExit()
	// The answering job's base names every rank lost on the way: the
	// victim, and any a false verdict fenced (it exits with an error).
	for i, cmd := range kids {
		werr := cmd.Wait()
		rank := i + 1
		if rank == killRank {
			fmt.Printf("# rank %d (victim) exited: %v\n", rank, werr)
			continue
		}
		if slices.Contains(job.DeadOrder, rank) {
			fmt.Printf("# rank %d (lost) exited: %v\n", rank, werr)
			continue
		}
		if werr != nil {
			log.Printf("rank %d exited: %v", rank, werr)
			return 1
		}
	}

	fmt.Printf("\n# distributed run: %d processes (%s) x %d workers, elapsed %v, %s\n",
		locs, network, rep.Workers, rep.Elapsed, rep.Runtime)
	ts := rep.Runtime.Transport
	fmt.Printf("# wire: messages=%d bytes-out=%d bytes-in=%d reconnects=%d handshake-failures=%d\n",
		ts.WireMessages, ts.BytesOut, ts.BytesIn, ts.Reconnects, ts.HandshakeFailures)
	fmt.Printf("# delivery: sent=%d acked=%d retried=%d delivered=%d deadline-exceeded=%d dropped=%d duplicated=%d\n",
		ts.Sent, ts.Acked, ts.Retried, ts.Delivered, ts.DeadlineExceeded, ts.Dropped, ts.Duplicated)

	want, err := plan.EvaluateSequential(q)
	if err != nil {
		log.Print(err)
		return 1
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
	// elapsed runs from the first attempt's start to the potentials that
	// verify: detection, the failed attempt and the re-run included.
	fmt.Printf("# answer: attempts=%d elapsed=%v\n", attempts, answered)
	if worst > 1e-12 {
		fmt.Printf("# dist: FAIL max relative error %.3e (gate 1e-12)\n", worst)
		return 1
	}
	fmt.Printf("# dist: PASS max relative error %.3e (gate 1e-12)\n", worst)
	return 0
}

// runDistWorker is one forked worker rank: join the cluster and evaluate each
// job its log hands it until rank 0 broadcasts the exit — a job that loses
// another rank is re-run by the next one — and, when chosen as the chaos
// victim, SIGKILL itself at the requested local progress fraction.
func runDistWorker(plan *core.Plan, sc scenario, rank, locs int, network, addr string, fault *amt.FaultProfile, killRank int, killAt float64) int {
	cl, err := amt.NewCluster(amt.ClusterConfig{
		Rank: rank, World: locs, Network: network, Addr: addr,
		Stamp: sc.stamp(locs), Heartbeat: distHeartbeat(), Fault: fault,
	})
	if err != nil {
		log.Printf("rank %d join: %v", rank, err)
		return 1
	}
	defer cl.Close()
	if err := cl.Start(); err != nil {
		log.Printf("rank %d: %v", rank, err)
		return 1
	}
	events := cl.Subscribe()
	defer events.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	opts := core.ExecOptions{Workers: distWorkers(locs)}
	if killRank == rank {
		opts.OnProgress = func(fired, owned int) {
			if owned > 0 && float64(fired) >= killAt*float64(owned) {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	for {
		ev, ok := events.Next()
		if !ok {
			return 1
		}
		switch ev.Kind {
		case amt.EventExit:
			return 0
		case amt.EventCoordLost:
			log.Printf("rank %d: %v", rank, ev.Err)
			return 1
		case amt.EventJob:
			opts.Job = ev.Job
			_, _, err := core.DistRun(ctx, plan, cl, sc.charges(), opts)
			var lost *core.RankLostError
			if err != nil && !(errors.As(err, &lost) && lost.Rank != rank) {
				log.Printf("rank %d: %v", rank, err)
				return 1
			}
		}
	}
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

// runReal executes the DAG on the goroutine runtime of this machine, one
// locality of GOMAXPROCS workers, and prints measured utilization and per-op
// averages.
func runReal(plan *core.Plan, sc scenario, traceOut string) {
	w := runtime.GOMAXPROCS(0)
	q := sc.charges()
	tr := trace.New(w)
	pe, err := plan.NewParallelEvaluation(core.ExecOptions{Workers: w, Tracer: tr})
	if err != nil {
		log.Fatal(err)
	}
	// The first evaluation builds the lazy operator tables inside the
	// operators that need them. Of the warm traced ones that follow, the
	// fastest is kept: on a shared box a run that lost its cores to a
	// neighbour says nothing about the operators.
	_, cold, err := pe.Run(q)
	if err != nil {
		log.Fatal(err)
	}
	var rep core.ExecReport
	var events []trace.Event
	for i := 0; i < 3; i++ {
		tr.Reset()
		_, r, err := pe.Run(q)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 || r.Elapsed < rep.Elapsed {
			rep, events = r, tr.Snapshot()
		}
	}
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
	fmt.Printf("\n# real runtime: 1 locality x %d workers, elapsed %v warm (%v cold), %s\n",
		w, rep.Elapsed, cold.Elapsed, rep.Runtime)
	start, end := trace.Span(events)
	u := trace.Analyze(events, w, 100, start, end)
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
	printModelCheck(plan, events)
	st := kernel.ShiftTableStats()
	fmt.Printf("# I->I shift table: slots=%d bytes=%d\n", st.Slots, st.Bytes)
}
