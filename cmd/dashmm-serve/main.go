// Command dashmm-serve is the long-lived evaluation daemon: it keeps built
// plans (tree + DAG + kernel tables), each with one evaluation context and
// amt runtime, warm across requests, so the iterative-evaluation
// amortization of the paper's Section IV extends across clients of a
// service.
//
// Endpoints:
//
//	POST /evaluate      JSON evaluation request -> potentials + report
//	GET  /healthz       liveness
//	GET  /metrics       counters, gauges and per-phase latency histograms
//	GET  /debug/pprof/  standard pprof handlers
//
// A minimal request is {"n": 10000}; see internal/serve.Request for the
// full schema (distribution / inline points, kernel, accuracy, charges,
// deadline_ms, trace). Every in-process evaluation runs on GOMAXPROCS /
// -max-concurrent scheduler threads.
//
// With -workers N the daemon forks N worker-rank processes (this same
// binary, re-executed) into a supervised standing pool: requests of at
// least -dist-threshold points run distributed across the ranks. A worker
// whose process exits is forked again and re-admitted with a fresh wire
// generation; a job that loses a rank is re-run on the survivors; a rank
// that keeps crashing is abandoned and jobs place over the rest. Only when
// no worker is live, or the breaker is open after repeated failures, does
// the daemon degrade to in-process evaluation (responses marked "degraded")
// instead of failing.
//
// Example:
//
//	dashmm-serve -addr :8075 -workers 4 &
//	curl -s localhost:8075/evaluate -d '{"n":20000}' | head -c 200
//	curl -s localhost:8075/metrics          # per-rank health under "dist"
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	// Worker re-exec: a process forked by the pool never reaches the flag
	// parsing below — it joins the coordinator and serves jobs until EXIT.
	if serve.MaybeWorker() {
		return
	}

	var (
		addr       = flag.String("addr", ":8075", "listen address")
		maxQueue   = flag.Int("max-queue", 64, "admission queue depth; excess requests get 429")
		maxConc    = flag.Int("max-concurrent", 2, "evaluations running at once")
		cacheSize  = flag.Int("cache-size", 16, "plan-cache capacity (plans)")
		deadline   = flag.Duration("default-deadline", 30*time.Second, "deadline for requests without deadline_ms")
		maxPoints  = flag.Int("max-points", 200000, "largest accepted ensemble (-1 = unlimited)")
		drainGrace = flag.Duration("drain", 10*time.Second, "shutdown grace period")
		storeDir   = flag.String("store", "", "persistent plan-store directory (empty = no spill/recovery)")

		workers     = flag.Int("workers", 0, "worker-rank pool size (0 = in-process only)")
		distNet     = flag.String("dist-net", "unix", "pool transport: unix or tcp")
		distThresh  = flag.Int("dist-threshold", 4096, "smallest ensemble routed over the pool (-1 = never)")
		rankThreads = flag.Int("rank-threads", 0, "scheduler threads per rank (0 = auto)")
	)
	flag.Parse()

	srv := serve.New(serve.Config{
		MaxQueue:        *maxQueue,
		MaxConcurrent:   *maxConc,
		CacheSize:       *cacheSize,
		DefaultDeadline: *deadline,
		MaxPoints:       *maxPoints,
		DistThreshold:   *distThresh,
	})

	if *storeDir != "" {
		st, err := serve.OpenStore(*storeDir)
		if err != nil {
			log.Fatalf("dashmm-serve: %v", err)
		}
		srv.UseStore(st)
		recovered, skipped, err := srv.RecoverFromStore()
		if err != nil {
			log.Fatalf("dashmm-serve: recovering plan store: %v", err)
		}
		log.Printf("dashmm-serve: plan store %s: %d plans recovered, %d unreadable records skipped",
			*storeDir, recovered, skipped)
	}

	var pool *serve.Pool
	if *workers > 0 {
		p, err := serve.NewPool(serve.PoolConfig{
			Workers:     *workers,
			Network:     *distNet,
			RankThreads: *rankThreads,
		})
		if err != nil {
			// Degraded from birth: the daemon still serves everything
			// in-process rather than refusing to start.
			log.Printf("dashmm-serve: worker pool failed to start, serving in-process only: %v", err)
		} else {
			srv.AttachPool(p)
			pool = p
			log.Printf("dashmm-serve: worker pool up (%d ranks over %s, threshold %d points)",
				*workers, *distNet, *distThresh)
		}
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("dashmm-serve: draining (up to %v)", *drainGrace)
		ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("dashmm-serve: forced shutdown: %v", err)
		}
		// Tear the pool down only after the listener drained: in-flight
		// distributed requests finish (or degrade) first, and no worker
		// process outlives the daemon.
		if pool != nil {
			pool.Close()
			log.Printf("dashmm-serve: worker pool stopped")
		}
		close(done)
	}()

	laplacePair, laplaceF64, yukawaPair, yukawaF64 := serve.PairKernels()
	log.Printf("dashmm-serve: listening on %s (queue=%d, concurrent=%d, cache=%d plans, pair kernels laplace %s (above 5 digits %s), yukawa %s (above 5 digits %s), dense kernel %s)",
		*addr, *maxQueue, *maxConc, *cacheSize, laplacePair, laplaceF64, yukawaPair, yukawaF64, serve.DenseKernel())
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		if pool != nil {
			pool.Close()
		}
		log.Fatal(err)
	}
	<-done
}
