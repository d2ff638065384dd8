package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/points"
	"repro/internal/serve"
)

// Traffic shape of serve_mixed_2k.
const (
	serveClients  = 2  // closed-loop connections, one per core
	warmKeys      = 4  // tenant geometries kept warm
	coldEvery     = 12 // one request in twelve asks for a never-seen geometry
	daemonCacheSz = 8  // plan-cache capacity: 4 warm keys + 4, so the LRU evicts from the fifth cold key on
)

// exchange is one request with what is needed to check its reply later:
// checks run after the window so the client does not steal cycles from
// the daemon it is timing.
type exchange struct {
	client, round       int
	keySeed, chargeSeed int64
	cold                bool
	rep                 reply
	latency             float64 // calibrated seconds
	pots                []float64
	idx                 []int
}

// request builds the wire request for one geometry and charge vector.
func (w *workload) request(keySeed, qSeed int64) *serve.Request {
	return &serve.Request{
		Distribution: w.Dist.String(), N: w.N, Seed: keySeed,
		Kernel: w.kernelName(), Lambda: w.Lambda, Digits: digits, Threshold: w.Threshold,
		Localities: 1, Workers: w.Workers, ChargeSeed: qSeed,
	}
}

// send performs one exchange and keeps the potentials at the check sample.
func (w *workload) send(d *daemon, keySeed, qSeed int64, cold bool) *exchange {
	x := &exchange{keySeed: keySeed, chargeSeed: qSeed, cold: cold}
	x.rep = d.evaluate(w.request(keySeed, qSeed))
	if x.rep.err == nil {
		pot := x.rep.resp.Potentials
		x.idx = sampleTargets(len(pot), qSeed)
		x.pots = sampleAt(pot, x.idx)
		x.rep.resp.Potentials = nil // the sample is all the check needs
	}
	return x
}

// verify checks an exchange against direct summation. Geometries are
// regenerated from their seeds (cached: the warm keys recur).
func (w *workload) verify(x *exchange, cache map[int64]*problem) (float64, error) {
	if x.rep.err != nil {
		return 0, x.rep.err
	}
	if w.Kind == kindDist && !x.rep.resp.Report.Distributed {
		return 0, fmt.Errorf("request was not served over the worker pool (degraded=%v)", x.rep.resp.Report.Degraded)
	}
	p := cache[x.keySeed]
	if p == nil {
		p = w.generate(x.keySeed)
		if !x.cold {
			cache[x.keySeed] = p
		}
	}
	return w.relL2(x.pots, p.src, p.tgt, points.Charges(w.N, x.chargeSeed), x.idx), nil
}

// warmMix is the warm-key multiset of one cold period: the eleven warm
// requests between two cold ones, in Zipf(1.2) proportions over the four
// keys (0.53, 0.23, 0.14, 0.10 of 11, rounded). Every period carries the
// same mix; only its order is drawn from the seed.
var warmMix = [coldEvery - 1]int{0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3}

// daemonArgs is the daemon configuration of a served workload.
func (w *workload) daemonArgs() []string {
	if w.Kind == kindDist {
		args := []string{"-workers", "1", "-rank-threads", "1", "-max-concurrent", "2"}
		if w.N < 4096 { // smoke sizes sit below the daemon's default routing threshold
			args = append(args, "-dist-threshold", "1000")
		}
		return args
	}
	return []string{"-max-concurrent", "2", "-cache-size", fmt.Sprint(daemonCacheSz)}
}

// schedule is the request sequence of one client: which geometry and
// which charges its j-th request asks for.
type schedule struct {
	w      *workload
	seed   int64
	client int
	rng    *rand.Rand
	j      int
	mix    []int // this period's warm keys, in sending order
}

func (e *env) newSchedule(w *workload, client int) *schedule {
	return &schedule{w: w, seed: e.seed, client: client, rng: rand.New(rand.NewSource(e.seed*7919 + int64(client)))}
}

// next returns the next request's seeds. serve_mixed_2k interleaves a
// never-seen geometry every coldEvery requests (the two clients half a
// period apart); dist2 stays on its one warm key.
func (s *schedule) next() (keySeed, qSeed int64, cold bool) {
	j := s.j
	s.j++
	qSeed = chargeSeed(s.seed, 1+s.client*1000000+j)
	if s.w.Kind == kindDist {
		return pointSeed(s.seed, 0), qSeed, false
	}
	if j%coldEvery == coldEvery-1-s.client*(coldEvery/serveClients) {
		return pointSeed(s.seed, 1000+s.client*1000000+j), qSeed, true
	}
	if len(s.mix) == 0 {
		s.mix = append(s.mix, warmMix[:]...)
		s.rng.Shuffle(len(s.mix), func(a, b int) { s.mix[a], s.mix[b] = s.mix[b], s.mix[a] })
	}
	k := s.mix[0]
	s.mix = s.mix[1:]
	return pointSeed(s.seed, k), qSeed, false
}

// prime sends the first request for each warm key (two at a time for the
// mixed workload, the way its clients will) and returns the exchanges.
func (e *env) prime(w *workload, d *daemon) []*exchange {
	keys := 1
	clients := 1
	if w.Kind == kindServe {
		keys, clients = warmKeys, serveClients
	}
	xs := make([]*exchange, keys)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < keys; k += clients {
				xs[k] = w.send(d, pointSeed(e.seed, k), chargeSeed(e.seed, -1-k), true)
			}
		}(c)
	}
	wg.Wait()
	return xs
}

// window is what a measurement window over a daemon produced.
type window struct {
	xs     []*exchange
	active [][]float64 // per round, per client: calibrated seconds spent sending (pauses and barrier waits excluded)
	calib  []float64   // every calibration sample taken, in order
	cpuRaw float64     // process-tree CPU seconds over the window
}

// runWindow drives the closed-loop clients in rounds for `seconds` and at
// least minWarm warm replies; the clients pause between rounds for one
// calibration sample, so the loop is never timed against the daemon it
// calibrates. A round is a fixed number of requests per client — one whole
// cold period on serve_mixed, so every round carries the same mix and the
// throughput of a window does not depend on where its clock cut it; one
// request on dist2, calibration between requests.
func (e *env) runWindow(w *workload, d *daemon, calib, seconds float64, minWarm int) *window {
	clients, perRound := 1, 1
	if w.Kind == kindServe {
		clients, perRound = serveClients, coldEvery
	}
	scheds := make([]*schedule, clients)
	for c := range scheds {
		scheds[c] = e.newSchedule(w, c)
	}
	win := &window{calib: []float64{calib}}
	pids := d.pids()
	cpu0 := treeCPU(pids)
	warm := 0
	start := time.Now()
	for time.Since(start).Seconds() < seconds || warm < minWarm {
		round := make([][]*exchange, clients)
		busy := make([]float64, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t0 := time.Now()
				for i := 0; i < perRound; i++ {
					k, q, cold := scheds[c].next()
					x := w.send(d, k, q, cold)
					x.client, x.round = c, len(win.active)
					round[c] = append(round[c], x)
				}
				busy[c] = time.Since(t0).Seconds()
			}(c)
		}
		wg.Wait()
		after := e.cal.sample()
		win.calib = append(win.calib, after)
		for c := range busy {
			busy[c] = calibrated(busy[c], calib, after)
		}
		win.active = append(win.active, busy)
		for _, xs := range round {
			for _, x := range xs {
				x.latency = calibrated(x.rep.latency, calib, after)
				win.xs = append(win.xs, x)
				if x.rep.err == nil && !x.cold {
					warm++
				}
			}
		}
		calib = after
		if len(win.xs) > 100000 {
			break
		}
	}
	win.cpuRaw = treeCPU(pids) - cpu0
	return win
}

// daemonPass is the untraced end-to-end pass of a served workload.
func (e *env) daemonPass(w *workload) (*result, error) {
	bin, err := e.buildDaemon()
	if err != nil {
		return nil, err
	}
	res := newResult(endToEnd)
	var tl tally
	cache := map[int64]*problem{}
	var setup, cold, coldRaw []float64

	// Set-up, several times over: exec to healthz plus the first (cold)
	// request of every warm key, each time in a fresh process on a fresh
	// store. The last daemon stays up for the window.
	var d *daemon
	calib := e.cal.sample()
	for r := 0; r < w.Setups; r++ {
		dir, err := e.newRunDir()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err = e.startDaemon(bin, dir, w.daemonArgs()...)
		if err != nil {
			return nil, err
		}
		xs := e.prime(w, d)
		dt := time.Since(t0).Seconds()
		after := e.cal.sample()
		ok := true
		for _, x := range xs {
			relErr, err := w.verify(x, cache)
			if tl.note(err, relErr) {
				cold = append(cold, calibrated(x.rep.latency, calib, after))
				coldRaw = append(coldRaw, x.rep.latency)
			} else {
				ok = false
			}
		}
		if !ok {
			return nil, fmt.Errorf("set-up %d: priming failed:\n%s", r, d.logTail())
		}
		setup = append(setup, calibrated(dt, calib, after))
		calib = after
		if r < w.Setups-1 {
			e.stop(d)
		}
	}

	win := e.runWindow(w, d, calib, e.seconds, e.minSamples())
	pids := d.pids()
	hwm := treeMem(pids, "VmHWM:")
	heap, herr := d.liveHeapMB()
	m, merr := d.metrics()
	e.stop(d)
	if merr != nil {
		return nil, merr
	}
	if herr != nil {
		return nil, herr
	}

	var warm, warmRaw []float64
	okCount := 0
	okBy := make([][]float64, len(win.active)) // per round, per client
	for r := range okBy {
		okBy[r] = make([]float64, len(win.active[r]))
	}
	for _, x := range win.xs {
		relErr, err := w.verify(x, cache)
		if !tl.note(err, relErr) {
			continue
		}
		okCount++
		okBy[x.round][x.client]++
		if x.cold {
			cold, coldRaw = append(cold, x.latency), append(coldRaw, x.rep.latency)
		} else {
			warm, warmRaw = append(warm, x.latency), append(warmRaw, x.rep.latency)
		}
	}
	if len(warm) == 0 || len(cold) == 0 || m.StoreWrites == 0 {
		return nil, fmt.Errorf("window produced %d warm and %d cold results, %d store writes:\n%s",
			len(warm), len(cold), m.StoreWrites, d.logTail())
	}
	res.describe("cold_eval_s", cold, coldRaw)
	res.describe("warm_eval_s", warm, warmRaw)
	res.describeCalib(win.calib)
	res.set("setup_s", median(setup))
	res.set("cold_eval_s", median(cold))
	res.set("warm_eval_s", median(warm))
	res.set("eval_cpu_s", win.cpuRaw*calibRefS/mean(win.calib)/float64(okCount))
	// Closed-loop throughput: in each round the clients' own rates summed;
	// over the window the median round, so one disturbed round does not
	// set the number.
	var rates []float64
	for r := range okBy {
		var rate float64
		for c, n := range okBy[r] {
			rate += n / win.active[r][c]
		}
		rates = append(rates, rate)
	}
	res.set("evals_per_s", median(rates))
	res.notef("peak resident set (VmHWM) of the process tree: %.1f MB", hwm)
	res.set("live_heap_mb", heap)
	res.set("store_mb_per_plan", float64(m.StoreBytes)/float64(m.StoreWrites)/1e6)
	res.Attempted, res.Failed, res.Correct = tl.attempted, tl.failed, tl.failed == 0
	return res, nil
}
