package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucket semantics: bucket 0 holds
// everything at or below 1µs, bucket i > 0 holds (2^(i-1), 2^i]. The
// regression this guards: an exact power of two (us=4) used to land one
// bucket high ("us<=8"), doubling the reported quantile upper bound at
// boundary values.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		us     int64
		bucket int
	}{
		{0, 0},
		{1, 0},
		{2, 1},
		{3, 2},
		{4, 2}, // the off-by-one: must be "us<=4", not "us<=8"
		{5, 3},
		{7, 3},
		{8, 3},
		{9, 4},
		{16, 4},
		{17, 5},
		{1023, 10},
		{1024, 10},
		{1025, 11},
		{1 << 31, 31},
		{1 << 40, 31}, // clamped into the open-ended last bucket
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(time.Duration(c.us) * time.Microsecond)
		got := -1
		for i := 0; i < histBuckets; i++ {
			if h.buckets[i].Load() == 1 {
				if got != -1 {
					t.Fatalf("us=%d recorded in two buckets (%d and %d)", c.us, got, i)
				}
				got = i
			}
		}
		if got != c.bucket {
			t.Errorf("us=%d landed in bucket %d, want %d", c.us, got, c.bucket)
		}
	}
}

// A single observation of exactly 2^i µs must report quantiles of exactly
// 2^i, not 2^(i+1), and the snapshot's bucket label must name that bound.
func TestHistogramQuantileTightAtPowerOfTwo(t *testing.T) {
	var h Histogram
	h.Observe(4 * time.Microsecond)
	s := h.Snapshot()
	if s.P50US != 4 || s.P99US != 4 {
		t.Errorf("quantiles of a single 4µs sample: p50=%d p99=%d, want 4 and 4", s.P50US, s.P99US)
	}
	if s.MaxUS != 4 {
		t.Errorf("max bucket bound = %d, want 4", s.MaxUS)
	}
	if _, ok := s.Bucket["us<=4"]; !ok {
		t.Errorf("bucket labels = %v, want a us<=4 entry", s.Bucket)
	}
}

// /metrics renders exactly these keys (a daemon without a worker pool): the
// counters moved into one struct without any of them appearing, vanishing
// or being renamed.
func TestMetricsKeySet(t *testing.T) {
	want := []string{
		"bad_request", "cache_evicted", "cache_hits", "cache_misses", "cached_plans", "coalesced",
		"deadline", "degraded", "dense_kernel", "dist_failed", "dist_ok", "dist_requests",
		"evaluate", "failed", "inflight", "ok", "pair_kernel", "pair_kernel_f64",
		"pair_kernel_yukawa", "pair_kernel_yukawa_f64", "plan_build", "plans_by_max_level",
		"queue_depth", "queue_wait", "requests", "runtime_reuses", "shed", "shift_table_bytes",
		"shift_table_slots", "store_bytes", "store_corrupt", "store_hits", "store_recovered",
		"store_write_failed", "store_writes", "total", "traces", "wire_bytes_in",
		"wire_bytes_out", "wire_deadline_exceeded", "wire_handshake_failures", "wire_messages",
		"wire_reconnects", "wire_retried", "wire_stale_fenced",
	}
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _, eb := post(t, ts.URL, Request{N: 300}); code != http.StatusOK {
		t.Fatalf("request: HTTP %d %v", code, eb)
	}
	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(hr.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range m {
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("/metrics keys\n got %q\nwant %q", got, want)
	}
	var plans []int64
	if err := json.Unmarshal(m["plans_by_max_level"], &plans); err != nil || len(plans) < 2 || plans[len(plans)-1] != 1 {
		t.Errorf("plans_by_max_level %s after one plan: want one plan at its level, trailing zeros trimmed", m["plans_by_max_level"])
	}
}
