package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// A transient plan-build failure must not poison the cache key: the failed
// entry's sync.Once latches the error forever, so the entry has to leave
// the cache with the 500 and the next request for the same key must rebuild
// and succeed (regression: one flaky build used to 500 every later request
// until LRU eviction).
func TestServeTransientBuildFailureDoesNotPoisonKey(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := Request{N: 900, Threshold: paperThr}
	nr := req
	if err := nr.normalize(s.cfg); err != nil {
		t.Fatal(err)
	}
	// Inject the failure the way a flaky build would leave it: the entry is
	// in the cache with its build Once already fired on an error.
	entry, hit, _ := s.cache.get(nr.planKey())
	if hit {
		t.Fatal("fresh cache reported a hit")
	}
	entry.build.Do(func() { entry.buildErr = errors.New("injected transient failure") })

	code, _, eb := post(t, ts.URL, req)
	if code != http.StatusInternalServerError {
		t.Fatalf("poisoned request: HTTP %d, want 500", code)
	}
	if !strings.Contains(eb.Error, "injected transient failure") {
		t.Errorf("error = %q, want the injected build failure", eb.Error)
	}
	if got := s.cache.len(); got != 0 {
		t.Fatalf("failed entry still cached (%d entries), want 0", got)
	}

	// Same key again: a fresh entry builds and serves.
	code, resp, _ := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("retry after transient failure: HTTP %d, want 200", code)
	}
	if resp.Report.CacheHit {
		t.Error("retry reported a cache hit; it should have rebuilt")
	}
	if got := s.cache.len(); got != 1 {
		t.Errorf("cache holds %d entries after the rebuild, want 1", got)
	}
}

// drop is pointer-checked: when a fresh entry has already replaced the
// failed one under the same key, dropping the stale pointer must not evict
// the replacement.
func TestPlanCacheDropIsPointerChecked(t *testing.T) {
	c := newPlanCache(4)
	stale, _, _ := c.get("k")
	c.drop("k", stale)
	fresh, hit, _ := c.get("k")
	if hit {
		t.Fatal("dropped entry still in the cache")
	}
	if fresh == stale {
		t.Fatal("cache returned the dropped entry")
	}
	c.drop("k", stale) // stale pointer: must be a no-op
	if got, hit, _ := c.get("k"); !hit || got != fresh {
		t.Error("drop with a stale pointer evicted the replacement entry")
	}
}
