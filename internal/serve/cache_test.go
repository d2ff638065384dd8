package serve

import (
	"bytes"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kernel"
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

// A panic inside the plan build is the key's failure, not a dropped
// connection: one 500 counted once as failed, the stack logged once, and the
// key rebuilds on the next request (regression: the build's sync.Once
// latched done with no plan and no error, net/http dropped the connection,
// and every later request for the key waited out its deadline).
func TestServePlanBuildPanicIsOne500(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	newPlan = func([]geom.Point, []geom.Point, kernel.Kernel, core.Options) (*core.Plan, error) {
		panic("injected build panic")
	}
	defer func() { newPlan = core.NewPlan }()

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := Request{N: 900, Threshold: paperThr}
	code, _, eb := post(t, ts.URL, req)
	if code != http.StatusInternalServerError || !strings.Contains(eb.Error, "injected build panic") {
		t.Fatalf("panicking build: HTTP %d %v, want a 500 naming the panic", code, eb)
	}
	if got := s.cache.len(); got != 0 {
		t.Fatalf("the panicked entry still holds a cache slot (%d entries)", got)
	}
	if n := strings.Count(logged.String(), "injected build panic"); n != 1 || !strings.Contains(logged.String(), "ensureBuilt") {
		t.Errorf("log has the panic %d times (want once, with its stack):\n%s", n, logged.String())
	}

	newPlan = core.NewPlan
	code, resp, eb := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("retry with the build restored: HTTP %d %v, want 200", code, eb)
	}
	if resp.Report.CacheHit {
		t.Error("retry reported a cache hit; it should have rebuilt")
	}
	requireConserved(t, s)
	if m := s.metrics.snapshot(s.cache.len(), nil); m.Failed != 1 || m.OK != 1 || m.Requests != 2 {
		t.Errorf("requests=%d ok=%d failed=%d, want 2, 1, 1", m.Requests, m.OK, m.Failed)
	}
}
