package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
)

// Request is one JSON evaluation request. The ensemble is given either as a
// spec (distribution + n + seed, the paper's generated workloads) or as
// inline source/target coordinates; charges likewise come from a seed or
// inline. Everything else defaults sensibly so the minimal request is
// {"n": 10000}.
type Request struct {
	// Ensemble spec.
	Distribution string `json:"distribution,omitempty"` // cube | sphere | plummer (default cube)
	N            int    `json:"n,omitempty"`            // points per ensemble
	Seed         int64  `json:"seed,omitempty"`         // point RNG seed (default 1; targets use Seed+1)

	// Inline ensembles (alternative to the spec). Each point is [x,y,z].
	Sources [][3]float64 `json:"sources,omitempty"`
	Targets [][3]float64 `json:"targets,omitempty"`

	// Kernel and accuracy.
	Kernel    string  `json:"kernel,omitempty"` // laplace | yukawa (default laplace)
	Lambda    float64 `json:"lambda,omitempty"` // yukawa screening parameter (default 4.0)
	Digits    int     `json:"digits,omitempty"` // accuracy digits (default 3)
	Threshold int     `json:"threshold,omitempty"`

	// Execution shape. Both are validated and select nothing: one process
	// is one locality, and every in-process evaluation runs on the daemon's
	// GOMAXPROCS / MaxConcurrent threads (Report.Workers says how many).
	Localities int `json:"localities,omitempty"` // 0 or 1
	Workers    int `json:"workers,omitempty"`    // at most 256

	// Charges: inline values or a generator seed (default seed 3).
	Charges    []float64 `json:"charges,omitempty"`
	ChargeSeed int64     `json:"charge_seed,omitempty"`

	// DeadlineMS bounds the request's time in queue and its evaluation: a
	// request that cannot be admitted before the deadline is shed, one whose
	// plan is priced beyond it is refused, and a run over the worker pool
	// ends with it. 0 uses the server default.
	DeadlineMS int `json:"deadline_ms,omitempty"`

	// Trace captures the evaluation's event trace (trace.WriteJSON lines)
	// into the response.
	Trace bool `json:"trace,omitempty"`
}

// Response is the JSON reply to an evaluation request.
type Response struct {
	Potentials []float64 `json:"potentials"`
	Report     Report    `json:"report"`
	// TraceJSONL carries the per-request event trace (one JSON object per
	// line, the trace.WriteJSON format) when the request asked for it.
	TraceJSONL string `json:"trace_jsonl,omitempty"`
}

// Report describes how the request was served.
type Report struct {
	CacheHit      bool          `json:"cache_hit"`           // plan served from the cache
	StoreHit      bool          `json:"store_hit,omitempty"` // plan revived from the persistent store
	Coalesced     bool          `json:"coalesced"`           // piggybacked on an identical in-flight request
	RuntimeReused bool          `json:"runtime_reused"`      // evaluation ran on a pooled runtime generation
	QueueWait     time.Duration `json:"queue_wait_ns"`
	PlanBuild     time.Duration `json:"plan_build_ns"` // zero on a cache hit
	Evaluate      time.Duration `json:"evaluate_ns"`
	Total         time.Duration `json:"total_ns"`
	Localities    int           `json:"localities"`
	Workers       int           `json:"workers"`
	DAGNodes      int           `json:"dag_nodes"`
	DAGEdges      int64         `json:"dag_edges"`
	TasksRun      int64         `json:"tasks_run"`
	ParcelsSent   int64         `json:"parcels_sent"`
	Steals        int64         `json:"steals"`
	// Distributed: the evaluation ran over the worker-rank pool. Degraded:
	// it was eligible for the pool but fell back in-process (breaker open,
	// no live workers, or a mid-run failure that exhausted the retry).
	Distributed bool `json:"distributed,omitempty"`
	Degraded    bool `json:"degraded,omitempty"`
	// The plan's leaf size and what the cost model expects of it: the
	// refinement threshold the trees were built with (the request's, or the
	// tuner's choice), source plus target leaves, and the predicted busy
	// core-nanoseconds of one evaluation — compare with evaluate_ns x
	// localities x workers.
	Threshold       int   `json:"threshold"`
	Leaves          int   `json:"leaves"`
	PredictedEvalNS int64 `json:"predicted_eval_ns"`
	// PairKernel is the near-field pair loop the plan's kernel bound
	// (kernel.PairKernel): for Laplace it follows the requested digits as
	// well as the CPU ("avx512-f32" at up to five digits, "avx512" above).
	PairKernel string `json:"pair_kernel"`
}

// errorBody is the JSON error payload.
type errorBody struct {
	Error string `json:"error"`
	// Degraded marks a failure on the degraded path: the distributed fabric
	// was down and the fallback could not complete within the deadline.
	Degraded bool `json:"degraded,omitempty"`
}

// maxDeadlineMS is the largest deadline_ms a time.Duration holds.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// maxWorkers bounds the workers field.
const maxWorkers = 256

// normalize applies defaults and validates the request against the server
// limits. It returns a user-facing error for malformed requests.
func (r *Request) normalize(limits Config) error {
	inline := len(r.Sources) > 0 || len(r.Targets) > 0
	if inline {
		if len(r.Sources) == 0 || len(r.Targets) == 0 {
			return fmt.Errorf("inline ensembles need both sources and targets")
		}
		if r.N != 0 && r.N != len(r.Sources) {
			return fmt.Errorf("n=%d contradicts %d inline sources", r.N, len(r.Sources))
		}
		r.N = len(r.Sources)
	}
	if r.Distribution == "" {
		r.Distribution = "cube"
	}
	r.Distribution = strings.ToLower(r.Distribution)
	if _, err := points.ParseDistribution(r.Distribution); err != nil {
		return err
	}
	if r.N <= 0 {
		return fmt.Errorf("n must be positive")
	}
	if limits.MaxPoints > 0 && r.N > limits.MaxPoints {
		return fmt.Errorf("n=%d exceeds the server limit of %d points", r.N, limits.MaxPoints)
	}
	if limits.MaxPoints > 0 && len(r.Targets) > limits.MaxPoints {
		return fmt.Errorf("%d inline targets exceed the server limit of %d points", len(r.Targets), limits.MaxPoints)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Kernel == "" {
		r.Kernel = "laplace"
	}
	r.Kernel = strings.ToLower(r.Kernel)
	if r.Kernel == "yukawa" && r.Lambda == 0 {
		r.Lambda = 4.0
	}
	if r.Digits == 0 {
		r.Digits = 3
	}
	if r.Digits < 1 || r.Digits > 12 {
		return fmt.Errorf("digits=%d out of range [1,12]", r.Digits)
	}
	if _, err := kernel.New(r.Kernel, kernel.OrderForDigits(r.Digits), r.Lambda); err != nil {
		return err
	}
	if r.Threshold < 0 {
		return fmt.Errorf("threshold must be non-negative")
	}
	if r.Localities < 0 || r.Localities > 1 {
		return fmt.Errorf("localities=%d: an evaluation runs on one locality per process; ask for workers instead", r.Localities)
	}
	if r.Workers > maxWorkers {
		return fmt.Errorf("%d workers too large (at most %d scheduler threads per request)", r.Workers, maxWorkers)
	}
	if len(r.Charges) > 0 && len(r.Charges) != r.N {
		return fmt.Errorf("%d charges for %d sources", len(r.Charges), r.N)
	}
	if r.ChargeSeed == 0 {
		r.ChargeSeed = 3
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be non-negative")
	}
	if int64(r.DeadlineMS) > maxDeadlineMS {
		return fmt.Errorf("deadline_ms=%d too large (the largest accepted value is %d)", r.DeadlineMS, maxDeadlineMS)
	}
	return nil
}

// planKey identifies the cacheable part of a request: everything that goes
// into building the tree, the DAG and the kernel tables — (distribution, N,
// seed, kernel, accuracy, threshold). The threshold is the request's, so a
// tuned plan keys on thr=0 whatever value the tuner resolved it to. Inline
// ensembles key on a content hash so a client replaying the same geometry
// still hits the cache.
func (r *Request) planKey() string {
	if len(r.Sources) > 0 {
		h := fnv.New64a()
		hashPoints(h, r.Sources)
		hashPoints(h, r.Targets)
		return fmt.Sprintf("inline/%016x/%s/%s", h.Sum64(), r.kernelKey(), r.accuracyKey())
	}
	return fmt.Sprintf("%s/n=%d/seed=%d/%s/%s", r.Distribution, r.N, r.Seed, r.kernelKey(), r.accuracyKey())
}

func (r *Request) kernelKey() string {
	if r.Kernel == "yukawa" {
		return fmt.Sprintf("yukawa(%g)", r.Lambda)
	}
	return "laplace"
}

func (r *Request) accuracyKey() string {
	return fmt.Sprintf("d=%d/thr=%d", r.Digits, r.Threshold)
}

// requestKey identifies a whole evaluation for coalescing: the plan, the
// charge vector and whether a trace is wanted. Two concurrent requests with
// equal keys produce byte-identical responses and share one evaluation.
func (r *Request) requestKey() string {
	charges := fmt.Sprintf("qseed=%d", r.ChargeSeed)
	if len(r.Charges) > 0 {
		h := fnv.New64a()
		var b [8]byte
		for _, q := range r.Charges {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(q))
			h.Write(b[:])
		}
		charges = fmt.Sprintf("q=%016x", h.Sum64())
	}
	return fmt.Sprintf("%s|%s|trace=%v", r.planKey(), charges, r.Trace)
}

func hashPoints(h interface{ Write([]byte) (int, error) }, pts [][3]float64) {
	var b [8]byte
	for _, p := range pts {
		for _, c := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
			h.Write(b[:])
		}
	}
}

// distEligible reports whether the request should route through the
// worker-rank pool: generated points and charges only (every rank generates
// its own from the job broadcast; inline values do not fit in it), no trace
// capture (traces are per-process), and large enough that distribution beats
// the in-process path.
func (r *Request) distEligible(threshold int) bool {
	return threshold > 0 && len(r.Sources) == 0 && len(r.Charges) == 0 && !r.Trace && r.N >= threshold
}

// ensembles materializes the (normalized) request's source/target points.
func (r *Request) ensembles() (src, tgt []geom.Point) {
	if len(r.Sources) > 0 {
		return toGeom(r.Sources), toGeom(r.Targets)
	}
	d, _ := points.ParseDistribution(r.Distribution) // normalize refused any other
	return points.Generate(d, r.N, r.Seed), points.Generate(d, r.N, r.Seed+1)
}

// newKernel constructs the kernel the (normalized) request asks for.
func (r *Request) newKernel() kernel.Kernel {
	k, _ := kernel.New(r.Kernel, kernel.OrderForDigits(r.Digits), r.Lambda) // normalize refused what New refuses
	return k
}

// charges materializes the request's charge vector.
func (r *Request) chargeVector() []float64 {
	if len(r.Charges) > 0 {
		return r.Charges
	}
	return points.Charges(r.N, r.ChargeSeed)
}

func toGeom(pts [][3]float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{X: p[0], Y: p[1], Z: p[2]}
	}
	return out
}
