package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dag"
	"repro/internal/serve"
	"repro/internal/trace"
)

// daemon is the served half of a traced pass: the same traffic as the
// untraced window for half as long, every exchange a span with the
// daemon's own phase report as child spans, one request that asks the
// daemon for its operator trace, the counters of /metrics, and a restart
// on the same store to time recovery.
func (lg *ledger) daemon() error {
	e, w, res := lg.e, lg.w, lg.res
	bin, err := e.buildDaemon()
	if err != nil {
		return err
	}
	dir, err := e.newRunDir()
	if err != nil {
		return err
	}
	var d *daemon
	lg.span("serve", "start daemon", func() { d, err = e.startDaemon(bin, dir, w.daemonArgs()...) })
	if err != nil {
		return err
	}
	cache := map[int64]*problem{}
	var primed []*exchange
	lg.span("serve", "prime warm keys", func() { primed = e.prime(w, d) })
	for _, x := range primed {
		relErr, err := w.verify(x, cache)
		if !lg.tl.note(err, relErr) {
			return fmt.Errorf("priming failed:\n%s", d.logTail())
		}
	}
	m0, err := d.metrics()
	if err != nil {
		return err
	}

	win := e.runWindow(w, d, e.cal.sample(), e.seconds/2, e.minSamples()/2)

	// One request that carries the daemon's own operator events back. A
	// traced request is never routed over the pool, so on dist2 this is
	// the daemon's in-process view of the same problem.
	treq := w.request(pointSeed(e.seed, 0), chargeSeed(e.seed, -100))
	treq.Trace = true
	tstart := time.Now()
	trep := d.evaluate(treq)
	m1, err := d.metrics()
	if err != nil {
		return err
	}

	var queue, build, evalWarm, evalCold, overhead, size, parcels, warmLat []float64
	ok := 0
	for i, x := range win.xs {
		relErr, err := w.verify(x, cache)
		if !lg.tl.note(err, relErr) {
			continue
		}
		ok++
		rp := x.rep.resp.Report
		name := "request warm"
		if x.cold {
			name = "request cold"
		}
		lg.requestSpans(i+1, name, x.rep.sent, x.rep.latency, rp)
		queue = append(queue, ms(rp.QueueWait))
		if x.cold {
			build = append(build, ms(rp.PlanBuild))
			evalCold = append(evalCold, ms(rp.Evaluate))
			continue
		}
		evalWarm = append(evalWarm, ms(rp.Evaluate))
		overhead = append(overhead, x.rep.latency*1e3-ms(rp.Total))
		size = append(size, float64(x.rep.bytes))
		parcels = append(parcels, float64(rp.ParcelsSent))
		warmLat = append(warmLat, x.latency)
	}
	if ok == 0 {
		return fmt.Errorf("no successful request in the traced window:\n%s", d.logTail())
	}
	if trep.err == nil {
		id := lg.requestSpans(len(win.xs)+1, "request traced", tstart, trep.latency, trep.resp.Report)
		if evs, err := trace.ReadJSON(strings.NewReader(trep.resp.TraceJSONL)); err == nil {
			base := lg.rec.at(tstart) + int64(trep.resp.Report.QueueWait+trep.resp.Report.PlanBuild)
			for _, ev := range evs {
				if int(ev.Class) < int(dag.NumOpKinds) {
					lg.rec.add(id, len(win.xs)+1, "core.op", opName(dag.OpKind(ev.Class)), base+ev.Start, base+ev.End)
				}
			}
		}
	}
	lg.tl.note(trep.err, 0)

	res.set("serve.queue_wait_ms_p50", median(queue))
	res.set("serve.plan_build_ms_p50", median(build))
	res.set("serve.evaluate_warm_ms_p50", median(evalWarm))
	res.set("serve.evaluate_cold_ms_p50", median(evalCold))
	res.set("serve.http_overhead_ms_p50", median(overhead))
	res.set("serve.response_bytes", median(size))
	res.set("serve.cpu_s_per_req", win.cpuRaw/float64(ok))
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	reqs := m1.Requests - m0.Requests
	res.set("serve.cache_hit_ratio", ratio(m1.CacheHits-m0.CacheHits, m1.CacheHits-m0.CacheHits+m1.CacheMisses-m0.CacheMisses))
	res.set("serve.coalesced_ratio", ratio(m1.Coalesced-m0.Coalesced, reqs))
	res.set("serve.shed_ratio", ratio(m1.Shed-m0.Shed, reqs))
	res.set("serve.degraded_ratio", ratio(m1.DegradedOK-m0.DegradedOK, m1.DistRequests-m0.DistRequests))
	res.set("serve.dist_ok_ratio", ratio(m1.DistOK-m0.DistOK, m1.DistRequests-m0.DistRequests))
	if n := m1.DistOK - m0.DistOK; n > 0 {
		res.set("amt.parcels_per_eval", median(parcels))
		res.set("amt.wire_msgs_per_eval", ratio(m1.WireMessages-m0.WireMessages, n))
		res.set("amt.wire_bytes_per_eval", ratio(m1.WireBytesOut-m0.WireBytesOut+m1.WireBytesIn-m0.WireBytesIn, n))
		res.set("amt.wire_retried_per_eval", ratio(m1.WireRetried-m0.WireRetried, n))
		// Two ranks of one thread against one process of two threads, on
		// the same problem and cores: what the fabric costs.
		res.set("dist.efficiency_2r", lg.warmCal/median(warmLat))
	}

	// Recovery: a restart on the same store must answer a spilled key from
	// the store, without rebuilding its tables.
	e.stop(d)
	var rec reply
	recovery := lg.span("serve", "restart on store to first store_hit reply", func() {
		d, err = e.startDaemon(bin, dir, w.daemonArgs()...)
		if err == nil {
			rec = d.evaluate(w.request(pointSeed(e.seed, 0), chargeSeed(e.seed, -101)))
		}
	})
	if err != nil {
		return err
	}
	defer e.stop(d)
	if rec.err == nil && !rec.resp.Report.StoreHit {
		rec.err = fmt.Errorf("restart on the same store did not serve the key from the store")
	}
	lg.tl.note(rec.err, 0)
	res.set("serve.store_recover_ms", recovery*1e3)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// requestSpans records one exchange as a span whose children are the
// phases the daemon reported, laid end to end from the moment the request
// was sent; what is left over is the span's self time — HTTP, JSON and
// the network.
func (lg *ledger) requestSpans(req int, name string, sent time.Time, latency float64, rp serve.Report) int {
	t0 := lg.rec.at(sent)
	id := lg.rec.add(lg.root, req, "serve", name, t0, t0+int64(latency*1e9))
	at := t0
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"queue_wait", rp.QueueWait}, {"plan_build", rp.PlanBuild}, {"evaluate", rp.Evaluate}} {
		if ph.d > 0 {
			lg.rec.add(id, req, "serve."+ph.name, ph.name, at, at+int64(ph.d))
			at += int64(ph.d)
		}
	}
	return id
}
