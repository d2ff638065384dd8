package serve

import (
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// planEntry is one cached plan: the built tree + DAG + kernel tables, plus
// the one long-lived ParallelEvaluation context every in-process request on
// it runs on. The entry mutex serializes evaluations on the plan. What it
// protects is stored and the context, whose payload buffers hold one run
// at a time. Placement lives in the context, not in the plan's graph
// (core.NewParallelEvaluation), so the plan itself would bear overlapping
// runs; a second context per plan was weighed for that and rejected — 7 MB
// for each warm key, +13 % live heap on the served workload, over its
// bound (CHANGES.md records the measurement).
type planEntry struct {
	key string

	build     sync.Once
	buildErr  error
	plan      *core.Plan
	buildTime time.Duration

	mu   sync.Mutex // serializes context build + evaluate on this plan
	eval *evalCtx   // built by the first in-process request; guarded by mu

	// fromStore marks an entry revived from the persistent plan store, at
	// start-up (RecoverFromStore) or by the build that found its record;
	// reviveErr is why a record that was there could not be used. Both are
	// written before the entry is published or inside build, read-only
	// after.
	fromStore bool
	reviveErr error
	// stored marks an entry already spilled or unspillable.
	stored bool // guarded by mu

	lastUsed int64 // cache clock tick; guarded by planCache.mu
}

// evalCtx is a plan's evaluation context: the ParallelEvaluation (payload
// buffers, LCO network, pooled runtime) and a permanently attached tracer
// that is enabled only for requests asking for a capture.
type evalCtx struct {
	pe     *core.ParallelEvaluation
	tracer *trace.Tracer
}

// planCache is an LRU cache of built plans keyed by Request.planKey().
type planCache struct {
	mu      sync.Mutex
	max     int
	clock   int64                 // guarded by mu
	entries map[string]*planEntry // guarded by mu
}

func newPlanCache(max int) *planCache {
	if max <= 0 {
		max = 1
	}
	return &planCache{max: max, entries: make(map[string]*planEntry)}
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// get returns the entry for key, creating it if absent. hit reports whether
// the entry already existed; evicted how many plans the LRU dropped to make
// room. The returned entry is unbuilt on a miss — the caller builds it via
// ensureBuilt, so concurrent misses on one key build the plan exactly once.
func (c *planCache) get(key string) (e *planEntry, hit bool, evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if e = c.entries[key]; e != nil {
		e.lastUsed = c.clock
		return e, true, 0
	}
	evicted = c.makeRoom()
	e = &planEntry{key: key}
	e.lastUsed = c.clock
	c.entries[key] = e
	return e, false, evicted
}

// makeRoom drops least recently used entries until one more fits, and
// returns how many went. Caller must hold c.mu.
//
//dashmm:locked planCache.mu — documented precondition: get and put call makeRoom inside their critical sections.
func (c *planCache) makeRoom() (evicted int) {
	for len(c.entries) >= c.max {
		var oldest *planEntry
		for _, cand := range c.entries {
			if oldest == nil || cand.lastUsed < oldest.lastUsed {
				oldest = cand
			}
		}
		delete(c.entries, oldest.key)
		evicted++
	}
	return evicted
}

// put installs a pre-built entry (plan-store recovery), evicting LRU
// entries to make room exactly as get does. An existing entry under the
// same key is replaced.
func (c *planCache) put(key string, e *planEntry) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if _, exists := c.entries[key]; !exists {
		evicted = c.makeRoom()
	}
	e.lastUsed = c.clock
	c.entries[key] = e
	return evicted
}

// drop removes the entry for key if it is still e. A failed build latches
// its error in the entry's sync.Once forever, so the entry must leave the
// cache for the next request on the key to rebuild — without the pointer
// check a slow failure could evict an unrelated fresh entry that already
// replaced it.
func (c *planCache) drop(key string, e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] == e {
		delete(c.entries, key)
	}
}

// newPlan is the plan build behind ensureBuilt. It is a variable so a test
// can swap in a build that panics.
var newPlan = core.NewPlan

// ensureBuilt builds the plan on first use. With a store it first looks the
// key's record up and revives that — the cache holds CacheSize plans, the
// store every plan ever spilled, so a restarted daemon answers any of them
// from the store however many there are. Otherwise ensembles are
// materialized, the kernel constructed, and core.NewPlan runs the tree +
// list + DAG pipeline. Every later request for the same key skips all of it.
// A panic anywhere in the build is the key's failure, not the daemon's: it
// becomes the build error (its stack logged once, here), so the request is
// answered with a 500 and the caller drops the entry, instead of net/http
// dropping the connection with the entry latched done, planless and
// errorless.
func (e *planEntry) ensureBuilt(r *Request, st *Store) error {
	e.build.Do(func() {
		start := time.Now()
		defer func() { e.buildTime = time.Since(start) }()
		defer func() {
			if v := recover(); v != nil {
				e.plan, e.buildErr = nil, fmt.Errorf("panic: %v", v)
				log.Printf("serve: plan build for key %q panicked: %v\n%s", e.key, v, debug.Stack())
			}
		}()
		if st != nil && len(r.Sources) == 0 {
			if rec, err := st.Get(r.planKey()); err != nil {
				e.reviveErr = err
			} else if rec != nil {
				if e.plan, e.reviveErr = rec.rebuild(); e.reviveErr == nil {
					e.fromStore = true
					return
				}
			}
		}
		src, tgt := r.ensembles()
		e.plan, e.buildErr = newPlan(src, tgt, r.newKernel(), core.Options{Threshold: r.Threshold})
	})
	return e.buildErr
}

// context returns the entry's evaluation context, building it on first
// use with the given number of scheduler threads (Server.workers: the same
// for every entry of a daemon). Caller must hold e.mu.
//
//dashmm:locked planEntry.mu — documented precondition: evaluate calls context inside the entry's critical section.
func (e *planEntry) context(workers int) (*evalCtx, error) {
	if e.eval != nil {
		return e.eval, nil
	}
	tr := trace.New(workers)
	tr.SetEnabled(false)
	pe, err := e.plan.NewParallelEvaluation(core.ExecOptions{Workers: workers, Tracer: tr})
	if err != nil {
		return nil, err
	}
	e.eval = &evalCtx{pe: pe, tracer: tr}
	return e.eval, nil
}
