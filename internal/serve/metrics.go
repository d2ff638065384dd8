package serve

import (
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amt"
	"repro/internal/core"
	"repro/internal/kernel"
)

// Metrics is the server's expvar-style counter set, exposed as JSON at
// /metrics. The counters are the fields of one MetricsSnapshot, bumped
// under a leaf mutex (count) and copied under it to render; the gauges
// admission reads back (queue depth, in-flight evaluations) are atomics,
// and the latency histograms are lock-free.
type Metrics struct {
	mu sync.Mutex      // leaf: nothing is acquired under it
	c  MetricsSnapshot // the counters; guarded by mu

	queued   atomic.Int64 // requests waiting for an evaluation slot (gauge)
	inflight atomic.Int64 // evaluations currently running (gauge)

	// Per-phase latency histograms.
	QueueWait Histogram
	PlanBuild Histogram
	Evaluate  Histogram
	Total     Histogram
}

// count applies f to the counters under the lock.
func (m *Metrics) count(f func(c *MetricsSnapshot)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f(&m.c)
}

// observeError counts one evaluation that did not end in a 200, under the
// status it was answered with — by its leader or by a coalesced duplicate
// mirroring it: a plan refused as too expensive is the client's 400, an
// expired deadline a 503, anything else a server-side failure. Every
// request moves exactly one outcome counter.
func (m *Metrics) observeError(status int) {
	m.count(func(c *MetricsSnapshot) {
		switch status {
		case http.StatusBadRequest:
			c.BadRequest++
		case http.StatusServiceUnavailable:
			c.Deadline++
		default:
			c.Failed++
		}
	})
}

// observePlanLevel counts one freshly built plan under its max tree level
// (tree.Build stops at tree.MaxDepth).
func (c *MetricsSnapshot) observePlanLevel(p *core.Plan) {
	l := p.MaxLevel()
	for len(c.PlansByLevel) <= l {
		c.PlansByLevel = append(c.PlansByLevel, 0)
	}
	c.PlansByLevel[l]++
}

// observeTransport folds one evaluation's transport counters into the
// cumulative wire counters.
func (c *MetricsSnapshot) observeTransport(ts amt.TransportStats) {
	c.WireMessages += ts.WireMessages
	c.WireBytesOut += ts.BytesOut
	c.WireBytesIn += ts.BytesIn
	c.WireReconnects += ts.Reconnects
	c.WireHandshakes += ts.HandshakeFailures
	c.WireRetried += ts.Retried
	c.WireDeadlineLost += ts.DeadlineExceeded
	c.WireStaleFenced += ts.StaleFenced
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

// MetricsSnapshot is the JSON body of /metrics. Its counters are
// monotonically increasing; the gauges, names and histograms from
// QueueDepth on are filled in when it is rendered.
type MetricsSnapshot struct {
	Requests   int64 `json:"requests"`    // evaluation requests received
	OK         int64 `json:"ok"`          // 200 responses
	BadRequest int64 `json:"bad_request"` // 400 responses
	Shed       int64 `json:"shed"`        // 429 responses (queue full)
	Deadline   int64 `json:"deadline"`    // 503 responses (deadline expired: queued, coalesced, or with a failed pool run)
	Failed     int64 `json:"failed"`      // 500 responses (plan build and evaluation errors)

	CacheHits    int64 `json:"cache_hits"`    // plan served from the cache
	CacheMisses  int64 `json:"cache_misses"`  // plan built (or revived) for the request
	CacheEvicted int64 `json:"cache_evicted"` // plans dropped by the LRU
	CachedPlans  int64 `json:"cached_plans"`  // gauge
	Coalesced    int64 `json:"coalesced"`     // requests piggybacked on an identical in-flight one
	// PlansByLevel[l] is the number of plans built (not revived) with max
	// tree level l (trailing zero levels trimmed): where the leaf-size
	// tuner, or the requests' explicit thresholds, put this daemon's work.
	// Level 1 is the all-near-field plan small ensembles fall through to.
	PlansByLevel []int64 `json:"plans_by_max_level"`

	// Persistent plan-store counters (all zero when serving without -store).
	StoreRecovered int64 `json:"store_recovered"`    // plans recovered from the store, at start-up or on first request
	StoreHits      int64 `json:"store_hits"`         // requests served from a store-recovered plan
	StoreWrites    int64 `json:"store_writes"`       // plan records spilled to the store
	StoreBytes     int64 `json:"store_bytes"`        // bytes written to the store
	StoreCorrupt   int64 `json:"store_corrupt"`      // corrupt/truncated store records skipped
	StoreFailed    int64 `json:"store_write_failed"` // store writes that errored (disk trouble)

	RuntimeReuses int64 `json:"runtime_reuses"` // evaluations on a pooled runtime generation
	Traces        int64 `json:"traces"`         // per-request trace captures

	DistRequests int64 `json:"dist_requests"` // evaluations attempted over the worker pool
	DistOK       int64 `json:"dist_ok"`       // evaluations completed over the worker pool
	DistFailed   int64 `json:"dist_failed"`   // pool attempts that failed or were refused
	DegradedOK   int64 `json:"degraded"`      // eligible requests served in-process instead

	// Cumulative parcel-transport counters across evaluations, so wire
	// health (encode/decode volume, retransmissions, socket reconnects,
	// rejected handshakes) is visible at /metrics without scraping logs.
	WireMessages     int64 `json:"wire_messages"`
	WireBytesOut     int64 `json:"wire_bytes_out"`
	WireBytesIn      int64 `json:"wire_bytes_in"`
	WireReconnects   int64 `json:"wire_reconnects"`
	WireHandshakes   int64 `json:"wire_handshake_failures"` // failed handshakes
	WireRetried      int64 `json:"wire_retried"`
	WireDeadlineLost int64 `json:"wire_deadline_exceeded"` // parcels abandoned at the delivery deadline
	WireStaleFenced  int64 `json:"wire_stale_fenced"`      // frames dropped by the generation fence

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

// snapshot copies the counters under the lock and fills in the gauges,
// names and histograms.
func (m *Metrics) snapshot(cachedPlans int, dist *PoolSnapshot) MetricsSnapshot {
	m.mu.Lock()
	s := m.c
	s.PlansByLevel = slices.Clone(s.PlansByLevel)
	m.mu.Unlock()
	shift := kernel.ShiftTableStats()
	s.CachedPlans = int64(cachedPlans)
	s.QueueDepth, s.Inflight = m.queued.Load(), m.inflight.Load()
	s.ShiftTableSlots, s.ShiftTableBytes = shift.Slots, shift.Bytes
	s.PairKernel, s.PairKernelF64 = pairKernel, pairKernelF64
	s.PairKernelYukawa, s.PairKernelYukawaF64 = yukawaPairKernel, yukawaPairKernelF64
	s.DenseKernel = denseKernel
	s.QueueWait, s.PlanBuild = m.QueueWait.Snapshot(), m.PlanBuild.Snapshot()
	s.Evaluate, s.Total = m.Evaluate.Snapshot(), m.Total.Snapshot()
	s.Dist = dist
	return s
}
