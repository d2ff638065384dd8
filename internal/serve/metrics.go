package serve

import (
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/amt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/tree"
)

// Metrics is the server's expvar-style counter set, exposed as JSON at
// /metrics. Counters are monotonically increasing atomics; gauges
// (queue depth, in-flight evaluations) are sampled at render time.
type Metrics struct {
	Requests   atomic.Int64 // evaluation requests received
	OK         atomic.Int64 // 200 responses
	BadRequest atomic.Int64 // 400 responses
	Shed       atomic.Int64 // 429 responses (queue full)
	Deadline   atomic.Int64 // 503 responses (deadline expired: queued, coalesced, or with a failed pool run)
	Failed     atomic.Int64 // 500 responses (plan build and evaluation errors)

	CacheHits    atomic.Int64 // plan served from the cache
	CacheMisses  atomic.Int64 // plan built for the request
	CacheEvicted atomic.Int64 // plans dropped by the LRU
	Coalesced    atomic.Int64 // requests piggybacked on an identical in-flight one

	// Persistent plan-store counters (all zero when serving without -store).
	StoreRecovered atomic.Int64 // plans recovered from the store at startup
	StoreHits      atomic.Int64 // requests served from a store-recovered plan
	StoreWrites    atomic.Int64 // plan records spilled to the store
	StoreBytes     atomic.Int64 // bytes written to the store
	StoreCorrupt   atomic.Int64 // corrupt/truncated store records skipped
	StoreFailed    atomic.Int64 // store writes that errored (disk trouble)

	RuntimeReuses atomic.Int64 // evaluations on a pooled runtime generation
	Traces        atomic.Int64 // per-request trace captures

	DistRequests atomic.Int64 // evaluations attempted over the worker pool
	DistOK       atomic.Int64 // evaluations completed over the worker pool
	DistFailed   atomic.Int64 // pool attempts that failed or were refused
	DegradedOK   atomic.Int64 // eligible requests served in-process instead

	// Cumulative parcel-transport counters across evaluations, so wire
	// health (encode/decode volume, retransmissions, socket reconnects,
	// rejected handshakes) is visible at /metrics without scraping logs.
	WireMessages     atomic.Int64
	WireBytesOut     atomic.Int64
	WireBytesIn      atomic.Int64
	WireReconnects   atomic.Int64
	WireHandshakes   atomic.Int64 // failed handshakes
	WireRetried      atomic.Int64
	WireDeadlineLost atomic.Int64 // parcels abandoned at the delivery deadline
	WireStaleFenced  atomic.Int64 // frames dropped by the generation fence

	// PlansByLevel counts plans built (not revived) by the deeper tree's
	// max level: where the leaf-size tuner, or the requests' explicit
	// thresholds, put this daemon's work. Level 1 is the all-near-field
	// plan small ensembles fall through to.
	PlansByLevel [tree.MaxDepth + 1]atomic.Int64

	queued   atomic.Int64 // requests waiting for an evaluation slot (gauge)
	inflight atomic.Int64 // evaluations currently running (gauge)

	// Per-phase latency histograms.
	QueueWait Histogram
	PlanBuild Histogram
	Evaluate  Histogram
	Total     Histogram
}

// observePlanLevel counts one freshly built plan under its max tree level
// (tree.Build stops at tree.MaxDepth).
func (m *Metrics) observePlanLevel(p *core.Plan) {
	m.PlansByLevel[p.MaxLevel()].Add(1)
}

// observeError counts one evaluation that did not end in a 200, under the
// status it was answered with — by its leader or by a coalesced duplicate
// mirroring it: a plan refused as too expensive is the client's 400, an
// expired deadline a 503, anything else a server-side failure. Every
// request moves exactly one outcome counter.
func (m *Metrics) observeError(status int) {
	switch status {
	case http.StatusBadRequest:
		m.BadRequest.Add(1)
	case http.StatusServiceUnavailable:
		m.Deadline.Add(1)
	default:
		m.Failed.Add(1)
	}
}

// observeTransport folds one evaluation's transport counters into the
// cumulative wire metrics.
func (m *Metrics) observeTransport(ts amt.TransportStats) {
	m.WireMessages.Add(ts.WireMessages)
	m.WireBytesOut.Add(ts.BytesOut)
	m.WireBytesIn.Add(ts.BytesIn)
	m.WireReconnects.Add(ts.Reconnects)
	m.WireHandshakes.Add(ts.HandshakeFailures)
	m.WireRetried.Add(ts.Retried)
	m.WireDeadlineLost.Add(ts.DeadlineExceeded)
	m.WireStaleFenced.Add(ts.StaleFenced)
}

// histBuckets is the number of power-of-two latency buckets; bucket 0
// covers everything at or below 1µs and bucket i > 0 covers (2^(i-1), 2^i]
// microseconds, so a duration of exactly 2^i µs lands in the bucket whose
// "us<=2^i" label names it and the quantile upper bounds are tight at
// boundary values. The last bucket is open-ended (> ~35min).
const histBuckets = 32

// Histogram is a lock-free log2-bucketed latency histogram in microseconds.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	b := 0
	if us > 1 {
		// bits.Len64(us-1) is ceil(log2(us)): exact powers of two stay in
		// their own bucket instead of rounding one bucket up.
		b = bits.Len64(uint64(us - 1))
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumUS int64 `json:"sum_us"`
	// MeanUS and the quantiles are derived from the buckets; quantiles are
	// upper bucket bounds, i.e. conservative estimates.
	MeanUS float64          `json:"mean_us"`
	P50US  int64            `json:"p50_us"`
	P90US  int64            `json:"p90_us"`
	P99US  int64            `json:"p99_us"`
	MaxUS  int64            `json:"max_us_bucket"`
	Bucket map[string]int64 `json:"buckets,omitempty"` // "us<=N" -> count
}

// Snapshot renders the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: h.count.Load(), SumUS: h.sumUS.Load()}
	if s.Count > 0 {
		s.MeanUS = float64(s.SumUS) / float64(s.Count)
	}
	if total == 0 {
		return s
	}
	bound := func(i int) int64 {
		if i >= 63 {
			return math.MaxInt64
		}
		return 1 << uint(i) // inclusive upper bound of bucket i (see Observe)
	}
	quantile := func(q float64) int64 {
		target := int64(math.Ceil(q * float64(total)))
		var cum int64
		for i := 0; i < histBuckets; i++ {
			cum += counts[i]
			if cum >= target {
				return bound(i)
			}
		}
		return bound(histBuckets)
	}
	s.P50US = quantile(0.50)
	s.P90US = quantile(0.90)
	s.P99US = quantile(0.99)
	s.Bucket = map[string]int64{}
	for i := 0; i < histBuckets; i++ {
		if counts[i] == 0 {
			continue
		}
		s.Bucket[bucketLabel(i)] = counts[i]
		s.MaxUS = bound(i)
	}
	return s
}

func bucketLabel(i int) string {
	if i == 0 {
		return "us<=1"
	}
	return "us<=" + strconv.FormatInt(1<<uint(i), 10)
}

// MetricsSnapshot is the JSON body of /metrics.
type MetricsSnapshot struct {
	Requests   int64 `json:"requests"`
	OK         int64 `json:"ok"`
	BadRequest int64 `json:"bad_request"`
	Shed       int64 `json:"shed"`
	Deadline   int64 `json:"deadline"`
	Failed     int64 `json:"failed"`

	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEvicted int64 `json:"cache_evicted"`
	CachedPlans  int64 `json:"cached_plans"`
	Coalesced    int64 `json:"coalesced"`
	// PlansByLevel[l] is the number of plans built with max tree level l
	// (trailing zero levels trimmed).
	PlansByLevel []int64 `json:"plans_by_max_level"`

	StoreRecovered int64 `json:"store_recovered"`
	StoreHits      int64 `json:"store_hits"`
	StoreWrites    int64 `json:"store_writes"`
	StoreBytes     int64 `json:"store_bytes"`
	StoreCorrupt   int64 `json:"store_corrupt"`
	StoreFailed    int64 `json:"store_write_failed"`

	RuntimeReuses int64 `json:"runtime_reuses"`
	Traces        int64 `json:"traces"`

	DistRequests int64 `json:"dist_requests"`
	DistOK       int64 `json:"dist_ok"`
	DistFailed   int64 `json:"dist_failed"`
	DegradedOK   int64 `json:"degraded"`

	WireMessages     int64 `json:"wire_messages"`
	WireBytesOut     int64 `json:"wire_bytes_out"`
	WireBytesIn      int64 `json:"wire_bytes_in"`
	WireReconnects   int64 `json:"wire_reconnects"`
	WireHandshakes   int64 `json:"wire_handshake_failures"`
	WireRetried      int64 `json:"wire_retried"`
	WireDeadlineLost int64 `json:"wire_deadline_exceeded"`
	WireStaleFenced  int64 `json:"wire_stale_fenced"`

	QueueDepth int64 `json:"queue_depth"`
	Inflight   int64 `json:"inflight"`

	// The process-wide I->I shift table (kernel.ShiftTableStats): resident
	// slots and bytes.
	ShiftTableSlots int   `json:"shift_table_slots"`
	ShiftTableBytes int64 `json:"shift_table_bytes"`

	// PairKernel and PairKernelF64 are the near-field pair loops of this
	// process's Laplace kernels, PairKernelYukawa and PairKernelYukawaF64
	// its Yukawa kernels' (PairKernels): at up to five digits —
	// "avx512-f32" or "avx2-f32" where the CPU has a float32 loop — and
	// above, always float64 ("avx512", "avx2" or "go"). A request's own
	// loop is in its report.
	PairKernel          string `json:"pair_kernel"`
	PairKernelF64       string `json:"pair_kernel_f64"`
	PairKernelYukawa    string `json:"pair_kernel_yukawa"`
	PairKernelYukawaF64 string `json:"pair_kernel_yukawa_f64"`
	// DenseKernel is the dense far-field kernel every plan's M->M, M->L,
	// L->L, M->I and I->L ran on, and every table build (kernel.DenseKernel):
	// "avx512", "avx2" or "go".
	DenseKernel string `json:"dense_kernel"`

	QueueWait HistogramSnapshot `json:"queue_wait"`
	PlanBuild HistogramSnapshot `json:"plan_build"`
	Evaluate  HistogramSnapshot `json:"evaluate"`
	Total     HistogramSnapshot `json:"total"`

	// Dist is the worker-rank pool's health (nil when serving without one):
	// per-rank supervision state, restart counts, breaker state, generation.
	Dist *PoolSnapshot `json:"dist,omitempty"`
}

// The pair loops are probed once. A kernel binds pairKernel (Laplace) or
// yukawaPairKernel at up to five digits, the default three among them, and
// the F64 loop above.
var (
	pairKernel          = kernel.PairKernel(kernel.NewLaplace(kernel.OrderForDigits(3)))
	pairKernelF64       = kernel.PairKernel(kernel.NewLaplaceFloat64(0))
	yukawaPairKernel    = kernel.PairKernel(kernel.NewYukawa(kernel.OrderForDigits(3), 1))
	yukawaPairKernelF64 = kernel.PairKernel(kernel.NewYukawaFloat64(0, 1))
)

// denseKernel is probed once: one binding serves every kernel of a process.
var denseKernel = kernel.DenseKernel(kernel.NewLaplace(0))

// PairKernels names the near-field pair loops this process's kernels run
// (kernel.PairKernel) — Laplace's and Yukawa's, each at up to five digits
// and above — so a latency can be attributed to a CPU tier and precision
// from the daemon's own output.
func PairKernels() (laplace, laplaceF64, yukawa, yukawaF64 string) {
	return pairKernel, pairKernelF64, yukawaPairKernel, yukawaPairKernelF64
}

// DenseKernel names the dense far-field kernel this process runs
// (kernel.DenseKernel).
func DenseKernel() string { return denseKernel }

func (m *Metrics) snapshot(cachedPlans int, dist *PoolSnapshot) MetricsSnapshot {
	shift := kernel.ShiftTableStats()
	var byLevel []int64
	for l := range m.PlansByLevel {
		if n := m.PlansByLevel[l].Load(); n > 0 {
			byLevel = append(byLevel, make([]int64, l+1-len(byLevel))...)
			byLevel[l] = n
		}
	}
	return MetricsSnapshot{
		Requests:      m.Requests.Load(),
		OK:            m.OK.Load(),
		BadRequest:    m.BadRequest.Load(),
		Shed:          m.Shed.Load(),
		Deadline:      m.Deadline.Load(),
		Failed:        m.Failed.Load(),
		CacheHits:     m.CacheHits.Load(),
		CacheMisses:   m.CacheMisses.Load(),
		CacheEvicted:  m.CacheEvicted.Load(),
		CachedPlans:   int64(cachedPlans),
		Coalesced:     m.Coalesced.Load(),
		PlansByLevel:  byLevel,
		RuntimeReuses: m.RuntimeReuses.Load(),
		Traces:        m.Traces.Load(),

		StoreRecovered: m.StoreRecovered.Load(),
		StoreHits:      m.StoreHits.Load(),
		StoreWrites:    m.StoreWrites.Load(),
		StoreBytes:     m.StoreBytes.Load(),
		StoreCorrupt:   m.StoreCorrupt.Load(),
		StoreFailed:    m.StoreFailed.Load(),

		DistRequests: m.DistRequests.Load(),
		DistOK:       m.DistOK.Load(),
		DistFailed:   m.DistFailed.Load(),
		DegradedOK:   m.DegradedOK.Load(),

		WireMessages:        m.WireMessages.Load(),
		WireBytesOut:        m.WireBytesOut.Load(),
		WireBytesIn:         m.WireBytesIn.Load(),
		WireReconnects:      m.WireReconnects.Load(),
		WireHandshakes:      m.WireHandshakes.Load(),
		WireRetried:         m.WireRetried.Load(),
		WireDeadlineLost:    m.WireDeadlineLost.Load(),
		WireStaleFenced:     m.WireStaleFenced.Load(),
		QueueDepth:          m.queued.Load(),
		Inflight:            m.inflight.Load(),
		ShiftTableSlots:     shift.Slots,
		ShiftTableBytes:     shift.Bytes,
		PairKernel:          pairKernel,
		PairKernelF64:       pairKernelF64,
		PairKernelYukawa:    yukawaPairKernel,
		PairKernelYukawaF64: yukawaPairKernelF64,
		DenseKernel:         denseKernel,
		QueueWait:           m.QueueWait.Snapshot(),
		PlanBuild:           m.PlanBuild.Snapshot(),
		Evaluate:            m.Evaluate.Snapshot(),
		Total:               m.Total.Snapshot(),
		Dist:                dist,
	}
}
