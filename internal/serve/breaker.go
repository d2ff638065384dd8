package serve

import (
	"sync"
	"time"
)

// Circuit breaker for the distributed path. Closed: distributed requests
// flow. A run of consecutive failures opens it; while open, every
// distributed-eligible request short-circuits straight to the in-process
// fallback (marked Degraded) instead of burning its deadline against a
// broken fabric. After a cooldown the breaker goes half-open: one probe
// request is let through, and its outcome closes or re-opens the breaker.
// An abandoned rank does not touch it: it is one more dead rank, and jobs
// place over the survivors.
type breaker struct {
	cooldown time.Duration // open → half-open delay

	mu       sync.Mutex
	failures int       // guarded by mu: consecutive failures
	state    string    // guarded by mu: closed | open | half-open
	openedAt time.Time // guarded by mu
	probing  bool      // guarded by mu: a half-open probe is in flight
}

func newBreaker(cooldown time.Duration) *breaker {
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &breaker{cooldown: cooldown, state: "closed"}
}

// allow reports whether a distributed attempt may proceed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case "closed":
		return true
	case "open":
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = "half-open"
		b.probing = true
		return true
	case "half-open":
		// One probe at a time; everyone else stays degraded until it lands.
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// success records a completed distributed evaluation.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	b.state = "closed"
}

// failure records a failed distributed evaluation.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.probing = false
	if b.state == "half-open" || b.failures >= breakerThreshold {
		b.state = "open"
		b.openedAt = time.Now()
	}
}

// skip records an attempt that never reached the fabric: no verdict, but a
// half-open probe's slot goes to the next request.
func (b *breaker) skip() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// current reports the breaker state for /metrics.
func (b *breaker) current() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
