// Command dashmm-load is the production load harness for dashmm-serve: it
// drives a live daemon over HTTP with open-loop (Poisson) arrivals, plan
// keys Zipf-skewed across simulated tenants, through scripted cold / warm /
// mixed phases, and writes per-phase latency quantiles (p50/p99/p999) and
// shed / deadline / coalesce / degraded rates as machine-readable JSON.
//
// The whole request schedule derives from -seed, so a run is reproducible:
// same seed, same arrival times, same key sequence.
//
// Phases are scripted as a comma-separated list of kind:duration:rate
// entries, e.g. -phases "cold:5s:10,warm:10s:40,mixed:5s:30". Before the
// first warm or mixed phase the harness primes every tenant's plan serially
// (reported as a synthetic "prime" phase).
//
// Examples:
//
//	dashmm-serve -addr :8075 -store /tmp/plans &
//	dashmm-load -url http://localhost:8075 -out BENCH_load.json
//	dashmm-load -verify BENCH_load.json -require-warm-hits
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/load"
)

func main() {
	var (
		url     = flag.String("url", "http://localhost:8075", "dashmm-serve base URL")
		seed    = flag.Int64("seed", 1, "schedule seed (arrivals, tenant draws, cold keys)")
		tenants = flag.Int("tenants", 8, "distinct warm plan keys")
		zipfS   = flag.Float64("zipf-s", 1.2, "Zipf skew exponent (> 1)")
		zipfV   = flag.Float64("zipf-v", 1, "Zipf v parameter (>= 1)")

		n         = flag.Int("n", 4000, "points per evaluation request")
		digits    = flag.Int("digits", 3, "accuracy digits per request")
		threshold = flag.Int("threshold", 0, "refinement threshold per request (0 = the server tunes it)")
		workers   = flag.Int("workers", 1, "workers per request")
		deadline  = flag.Int("deadline-ms", 0, "per-request deadline (0 = server default)")
		variants  = flag.Int("charge-variants", 4, "charge seeds cycled per key (coalescing pressure)")
		inflight  = flag.Int("max-inflight", 512, "client-side cap on outstanding requests")
		phasesArg = flag.String("phases", "cold:5s:10,warm:10s:40,mixed:5s:30",
			"comma-separated kind:duration:rate phases; mixed takes an optional :coldfraction")

		wait            = flag.Duration("wait", 0, "poll the server's /healthz this long before starting")
		out             = flag.String("out", "", "write BENCH_load.json here (empty = stdout)")
		verifyArg       = flag.String("verify", "", "verify an existing BENCH_load.json and exit")
		requireWarmHits = flag.Bool("require-warm-hits", false,
			"with -verify: fail unless warm phases recorded cache hits")
	)
	flag.Parse()

	if *verifyArg != "" {
		data, err := os.ReadFile(*verifyArg)
		if err != nil {
			log.Fatalf("dashmm-load: %v", err)
		}
		if err := load.Verify(data, *requireWarmHits); err != nil {
			log.Fatalf("dashmm-load: %v", err)
		}
		fmt.Printf("dashmm-load: %s verifies\n", *verifyArg)
		return
	}

	phases, err := parsePhases(*phasesArg)
	if err != nil {
		log.Fatalf("dashmm-load: %v", err)
	}
	runner, err := load.NewRunner(load.Config{
		BaseURL:        *url,
		Seed:           *seed,
		Tenants:        *tenants,
		ZipfS:          *zipfS,
		ZipfV:          *zipfV,
		N:              *n,
		Digits:         *digits,
		Threshold:      *threshold,
		Workers:        *workers,
		ChargeVariants: *variants,
		DeadlineMS:     *deadline,
		MaxInflight:    *inflight,
		Phases:         phases,
	})
	if err != nil {
		log.Fatalf("dashmm-load: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *wait > 0 {
		if err := waitHealthy(ctx, *url, *wait); err != nil {
			log.Fatalf("dashmm-load: %v", err)
		}
	}

	result, err := runner.Run(ctx)
	if err != nil {
		log.Fatalf("dashmm-load: %v", err)
	}
	data, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		log.Fatalf("dashmm-load: %v", err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatalf("dashmm-load: %v", err)
		}
		log.Printf("dashmm-load: wrote %s", *out)
	}
	for _, p := range result.Phases {
		log.Printf("dashmm-load: %-8s sent=%d ok=%d shed=%d deadline=%d err=%d hits=%d store=%d p50=%dus p99=%dus p999=%dus",
			p.Name, p.Sent, p.OK, p.Shed, p.Deadline, p.Errors, p.CacheHits, p.StoreHits,
			p.P50US, p.P99US, p.P999US)
	}
}

// waitHealthy polls /healthz until the daemon answers or the budget runs
// out, so scripts can start server and harness back to back.
func waitHealthy(ctx context.Context, url string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %v", url, budget)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// parsePhases decodes "kind:duration:rate[,kind:duration:rate...]"; mixed
// phases accept a fourth field for the cold fraction (default 0.2).
func parsePhases(s string) ([]load.PhaseSpec, error) {
	var specs []load.PhaseSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 {
			return nil, fmt.Errorf("phase %q: want kind:duration:rate", part)
		}
		kind := strings.ToLower(strings.TrimSpace(fields[0]))
		dur, err := time.ParseDuration(fields[1])
		if err != nil {
			return nil, fmt.Errorf("phase %q: %v", part, err)
		}
		var rate float64
		if _, err := fmt.Sscanf(fields[2], "%g", &rate); err != nil {
			return nil, fmt.Errorf("phase %q: bad rate %q", part, fields[2])
		}
		spec := load.PhaseSpec{Kind: kind, Duration: dur, RateRPS: rate}
		if kind == load.KindMixed {
			spec.ColdFraction = 0.2
			if len(fields) > 3 {
				if _, err := fmt.Sscanf(fields[3], "%g", &spec.ColdFraction); err != nil {
					return nil, fmt.Errorf("phase %q: bad cold fraction %q", part, fields[3])
				}
			}
		} else if len(fields) > 3 {
			return nil, fmt.Errorf("phase %q: only mixed phases take a fourth field", part)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no phases in %q", s)
	}
	return specs, nil
}
