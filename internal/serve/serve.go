// Package serve is the long-lived evaluation service behind cmd/dashmm-serve.
//
// The paper's premise (Section IV) is that FMM evaluation is iterative: the
// same tree + DAG is evaluated for many charge vectors, so setup cost must
// be amortized. This package lifts that amortization across requests of a
// daemon: plans (tree + lists + DAG + kernel tables) are cached by their
// problem key, each cached plan keeps one evaluation context (payload
// buffers, LCO network) with GOMAXPROCS / MaxConcurrent scheduler threads,
// and the amt runtime itself is multi-shot (amt.Runtime.Reset), so a warm
// request skips every allocation the first request paid for.
//
// Admission control keeps the daemon stable under load: a bounded queue
// sheds excess requests with 429, per-request deadlines turn into 503
// instead of unbounded waits, a semaphore caps concurrent evaluations, and
// identical concurrent requests coalesce into a single evaluation.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// Config bounds the server.
type Config struct {
	// MaxQueue is the admission-queue depth; requests beyond it are shed
	// with 429 (default 64).
	MaxQueue int
	// MaxConcurrent caps evaluations running at once (default 2; plans are
	// independently lockable, so two requests for different problems
	// genuinely overlap).
	MaxConcurrent int
	// CacheSize is the plan-cache capacity in plans (default 16).
	CacheSize int
	// DefaultDeadline bounds requests that do not set deadline_ms
	// (default 30s).
	DefaultDeadline time.Duration
	// MaxPoints rejects requests above this ensemble size with 400
	// (default 200000; 0 keeps the default, -1 disables the limit).
	MaxPoints int
	// DistThreshold routes eligible requests of at least this many points
	// through an attached worker-rank pool (default 4096; -1 disables
	// distributed routing even with a pool attached).
	DistThreshold int
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 16
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxPoints == 0 {
		c.MaxPoints = 200000
	} else if c.MaxPoints < 0 {
		c.MaxPoints = 0
	}
	if c.DistThreshold == 0 {
		c.DistThreshold = 4096
	} else if c.DistThreshold < 0 {
		c.DistThreshold = 0
	}
	return c
}

// call is one in-flight evaluation that identical concurrent requests
// piggyback on. The leader fills status + resp/errBody, then closes done.
type call struct {
	done    chan struct{}
	status  int
	resp    *Response
	errBody *errorBody
}

// Server is the evaluation daemon. Create with New, mount via Handler.
type Server struct {
	cfg     Config
	workers int // scheduler threads of every in-process evaluation: the cores one slot of MaxConcurrent gets
	cache   *planCache
	metrics Metrics
	sem     chan struct{}
	start   time.Time
	pool    *Pool  // optional worker-rank pool; set before serving
	store   *Store // optional persistent plan store; set before serving

	callMu sync.Mutex
	calls  map[string]*call // guarded by callMu

	mux *http.ServeMux
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		workers: max(1, runtime.GOMAXPROCS(0)/cfg.MaxConcurrent),
		cache:   newPlanCache(cfg.CacheSize),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		start:   time.Now(),
		calls:   make(map[string]*call),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	// pprof is registered explicitly on this mux (the server never uses
	// http.DefaultServeMux, so the blank-import side effect would miss).
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics renders the /metrics body: the counters, gauges and latency
// histograms, and the worker-rank pool's health when one is attached.
func (s *Server) Metrics() MetricsSnapshot {
	var dist *PoolSnapshot
	if s.pool != nil {
		dist = s.pool.Snapshot()
	}
	return s.metrics.snapshot(s.cache.len(), dist)
}

// AttachPool routes distributed-eligible requests through a worker-rank
// pool. Attach before serving; the server does not own the pool (the caller
// still closes it).
func (s *Server) AttachPool(p *Pool) { s.pool = p }

// Pool returns the attached worker-rank pool (nil without one).
func (s *Server) Pool() *Pool { return s.pool }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes an error reply. Every 503 — the leader's or a coalesced
// duplicate's mirror of it — tells the client when to come back.
func writeError(w http.ResponseWriter, status int, eb errorBody) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, eb)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ns": time.Since(s.start).Nanoseconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	s.metrics.count(func(m *MetricsSnapshot) { m.Requests++ })
	t0 := time.Now()

	var req Request
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.metrics.observeError(http.StatusBadRequest)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if err := req.normalize(s.cfg); err != nil {
		s.metrics.observeError(http.StatusBadRequest)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(&req))
	defer cancel()

	// Coalescing: an identical request already in flight (same plan,
	// charges and trace flag) is waited on instead of re-evaluated. The
	// leader is registered before it queues for a slot, so duplicates
	// arriving any time before its response coalesce deterministically.
	key := req.requestKey()
	s.callMu.Lock()
	if c := s.calls[key]; c != nil {
		s.callMu.Unlock()
		s.metrics.count(func(m *MetricsSnapshot) { m.Coalesced++ })
		s.awaitCall(w, ctx, c, t0)
		return
	}

	// Admission: bound the queue while still holding callMu, so the
	// shed/registration decision is atomic with respect to duplicates.
	if n := s.metrics.queued.Add(1); n > int64(s.cfg.MaxQueue) {
		s.metrics.queued.Add(-1)
		s.callMu.Unlock()
		s.metrics.count(func(m *MetricsSnapshot) { m.Shed++ })
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests,
			errorBody{Error: fmt.Sprintf("queue full (%d waiting)", s.cfg.MaxQueue)})
		return
	}
	c := &call{done: make(chan struct{})}
	s.calls[key] = c
	s.callMu.Unlock()

	// Leader: wait for an evaluation slot within the deadline.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.metrics.queued.Add(-1)
		s.finishCall(key, c, http.StatusServiceUnavailable,
			nil, &errorBody{Error: "deadline expired while queued"})
		s.metrics.observeError(http.StatusServiceUnavailable)
		writeError(w, http.StatusServiceUnavailable, *c.errBody)
		return
	}
	queueWait := time.Since(t0)
	s.metrics.queued.Add(-1)
	s.metrics.QueueWait.Observe(queueWait)
	s.metrics.inflight.Add(1)
	defer func() {
		s.metrics.inflight.Add(-1)
		<-s.sem
	}()

	resp, status, errb := s.evaluate(ctx, &req, queueWait, t0)
	if errb != nil {
		s.finishCall(key, c, status, nil, errb)
		s.metrics.observeError(status)
		writeError(w, status, *errb)
		return
	}
	s.metrics.Total.Observe(resp.Report.Total)
	s.finishCall(key, c, http.StatusOK, resp, nil)
	s.metrics.count(func(m *MetricsSnapshot) { m.OK++ })
	writeJSON(w, http.StatusOK, resp)
}

// deadline is the request's own deadline_ms, or the server default.
func (s *Server) deadline(req *Request) time.Duration {
	if req.DeadlineMS > 0 {
		return time.Duration(req.DeadlineMS) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

// finishCall publishes the leader's outcome and unregisters the call so a
// later identical request starts fresh.
func (s *Server) finishCall(key string, c *call, status int, resp *Response, errb *errorBody) {
	c.status = status
	c.resp = resp
	c.errBody = errb
	s.callMu.Lock()
	delete(s.calls, key)
	s.callMu.Unlock()
	close(c.done)
}

// awaitCall serves a coalesced duplicate: it waits for the leader's result
// (bounded by the duplicate's own deadline) and mirrors it.
func (s *Server) awaitCall(w http.ResponseWriter, ctx context.Context, c *call, t0 time.Time) {
	select {
	case <-ctx.Done():
		s.metrics.observeError(http.StatusServiceUnavailable)
		writeError(w, http.StatusServiceUnavailable,
			errorBody{Error: "deadline expired waiting on a coalesced request"})
		return
	case <-c.done:
	}
	if c.status != http.StatusOK {
		s.metrics.observeError(c.status)
		writeError(w, c.status, *c.errBody)
		return
	}
	resp := *c.resp
	resp.Report.Coalesced = true
	resp.Report.QueueWait = time.Since(t0)
	resp.Report.Total = time.Since(t0)
	s.metrics.count(func(m *MetricsSnapshot) { m.OK++ })
	writeJSON(w, http.StatusOK, &resp)
}

// evaluate serves one admitted request through the plan cache. On error it
// returns the HTTP status alongside the body (400 for a λ whose plane-wave
// rule on the request's geometry is past the kernel's size bound and for a
// plan the cost model prices beyond the deadline, 500 for evaluation
// failures, 503 when the degraded fallback could not fit in the deadline).
func (s *Server) evaluate(reqCtx context.Context, req *Request, queueWait time.Duration, t0 time.Time) (*Response, int, *errorBody) {
	entry, hit, evicted := s.cache.get(req.planKey())
	s.metrics.count(func(m *MetricsSnapshot) {
		m.CacheEvicted += int64(evicted)
		if hit {
			m.CacheHits++
		} else {
			m.CacheMisses++
		}
	})
	if err := entry.ensureBuilt(req, s.store); err != nil {
		// A failed build latches its error in the entry forever; drop it so
		// a transient failure does not poison the key until LRU eviction.
		s.cache.drop(req.planKey(), entry)
		if errors.Is(err, kernel.ErrRuleTooLarge) {
			// The request's λ on its geometry: nothing was built.
			return nil, http.StatusBadRequest, &errorBody{Error: err.Error()}
		}
		return nil, http.StatusInternalServerError, &errorBody{Error: "plan build failed: " + err.Error()}
	}
	var planBuild time.Duration
	if !hit {
		planBuild = entry.buildTime
	}
	if !hit && !entry.fromStore {
		s.metrics.PlanBuild.Observe(planBuild)
	}
	s.metrics.count(func(m *MetricsSnapshot) {
		switch {
		case entry.fromStore:
			m.StoreHits++
			if !hit { // revived by this request, not built
				m.StoreRecovered++
			}
		case !hit:
			m.observePlanLevel(entry.plan)
			if entry.reviveErr != nil {
				m.StoreCorrupt++
			}
		}
	})

	// The plan is priced before any operator table is built: a request
	// whose predicted run time exceeds its own deadline is refused now
	// instead of holding a slot past it (a single-leaf plan is one S→T task
	// nothing can cancel). It is priced on the threads the plan's context
	// runs, whatever the request's workers field says.
	plan := entry.plan
	predicted := time.Duration(plan.PredictedNanos() / float64(s.workers))
	if limit := s.deadline(req); predicted > limit {
		if !hit {
			s.cache.drop(req.planKey(), entry) // built for a request it was refused to: not worth a cache slot
		}
		return nil, http.StatusBadRequest, &errorBody{Error: fmt.Sprintf(
			"predicted evaluation time %.1fs (%.1f core-seconds on %d of this machine's %d cores, threshold %d, %d leaves) exceeds the %v deadline: "+
				"raise deadline_ms or leave threshold unset",
			predicted.Seconds(), plan.PredictedNanos()/1e9, s.workers, runtime.GOMAXPROCS(0),
			plan.Threshold(), plan.Leaves(), limit)}
	}
	report := func(rep core.ExecReport, evalDur time.Duration) Report {
		return Report{
			CacheHit:        hit,
			StoreHit:        entry.fromStore,
			RuntimeReused:   rep.RuntimeReused,
			QueueWait:       queueWait,
			PlanBuild:       planBuild,
			Evaluate:        evalDur,
			Total:           time.Since(t0),
			Localities:      rep.Localities,
			Workers:         rep.Workers,
			DAGNodes:        len(plan.Graph.Nodes),
			DAGEdges:        plan.Graph.NumEdges(),
			TasksRun:        rep.Runtime.TasksRun,
			ParcelsSent:     rep.Runtime.ParcelsSent,
			Steals:          rep.Runtime.Steals,
			Threshold:       plan.Threshold(),
			Leaves:          plan.Leaves(),
			PredictedEvalNS: int64(plan.PredictedNanos()),
			PairKernel:      kernel.PairKernel(plan.Kernel),
		}
	}

	// Evaluations on one plan serialize on its one context (one run at a
	// time; see planEntry). Different plans still run concurrently up to
	// MaxConcurrent.
	entry.mu.Lock()
	defer entry.mu.Unlock()

	// Distributed routing: large requests with generated points and charges
	// go over the worker pool; any pool failure degrades to the in-process
	// path below — unless the deadline already expired, which is a 503 the
	// client should retry.
	degraded := false
	if s.pool != nil && req.distEligible(s.cfg.DistThreshold) {
		s.metrics.count(func(m *MetricsSnapshot) { m.DistRequests++ })
		// Measure from just before the pool runs, as the in-process path
		// measures from after ensureBuilt: subtracting queueWait from the
		// request total would fold cold plan-build (and entry-lock wait)
		// time into the Evaluate histogram.
		evalStart := time.Now()
		//lint:ignore lockorder entry.mu serializes evaluation of one plan by design (stampede protection): the critical section is the evaluation itself
		pots, rep, derr := s.pool.Evaluate(reqCtx, req, entry, req.chargeVector())
		if derr == nil {
			evalDur := time.Since(evalStart)
			s.metrics.Evaluate.Observe(evalDur)
			s.metrics.count(func(m *MetricsSnapshot) {
				m.DistOK++
				m.observeTransport(rep.Runtime.Transport)
			})
			s.persistPlan(req, entry)
			r := report(rep, evalDur)
			r.Distributed = true
			return &Response{Potentials: pots, Report: r}, 0, nil
		}
		if errors.Is(derr, errNotStarted) {
			// The deadline ended before the job could start: the fabric was
			// never tried, so nothing degraded.
			return nil, http.StatusServiceUnavailable, &errorBody{Error: derr.Error()}
		}
		s.metrics.count(func(m *MetricsSnapshot) { m.DistFailed++ })
		if reqCtx.Err() != nil {
			return nil, http.StatusServiceUnavailable, &errorBody{
				Error:    "distributed evaluation failed and the deadline expired: " + derr.Error(),
				Degraded: true,
			}
		}
		// Fabric down but time remains: serve in-process, marked degraded.
		s.metrics.count(func(m *MetricsSnapshot) { m.DegradedOK++ })
		degraded = true
	}

	ctx, err := entry.context(s.workers)
	if err != nil {
		return nil, http.StatusInternalServerError, &errorBody{Error: "evaluation context: " + err.Error()}
	}
	if req.Trace {
		ctx.tracer.Reset()
		ctx.tracer.SetEnabled(true)
	}
	evalStart := time.Now()
	//lint:ignore lockorder entry.mu serializes evaluation of one plan by design (stampede protection): the critical section is the evaluation itself
	potentials, rep, err := ctx.pe.Run(req.chargeVector())
	evalDur := time.Since(evalStart)
	var traceJSONL string
	if req.Trace {
		events := ctx.tracer.Snapshot()
		ctx.tracer.SetEnabled(false)
		var buf bytes.Buffer
		if werr := trace.WriteJSON(&buf, events); werr == nil {
			traceJSONL = buf.String()
			s.metrics.count(func(m *MetricsSnapshot) { m.Traces++ })
		}
	}
	if err != nil {
		// The cached context stays usable: its next Run re-arms everything
		// this one left behind, runtime included.
		return nil, http.StatusInternalServerError,
			&errorBody{Error: "evaluation failed: " + err.Error(), Degraded: degraded}
	}
	s.metrics.Evaluate.Observe(evalDur)
	s.metrics.count(func(m *MetricsSnapshot) {
		m.observeTransport(rep.Runtime.Transport)
		if rep.RuntimeReused {
			m.RuntimeReuses++
		}
	})
	s.persistPlan(req, entry)

	r := report(rep, evalDur)
	r.Degraded = degraded
	return &Response{Potentials: potentials, Report: r, TraceJSONL: traceJSONL}, 0, nil
}
