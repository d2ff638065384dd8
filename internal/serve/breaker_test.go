package serve

import (
	"sync"
	"testing"
	"time"
)

// Verdicts reach the breaker from every request goroutine at once, and
// admission asks it at the same time: success, failure and allow each touch
// the breaker's fields under b.mu only. Under -race this is the gate for a
// field written outside the lock; the state checks hold either way.
func TestBreakerConcurrentVerdicts(t *testing.T) {
	b := newBreaker(time.Nanosecond) // open goes half-open at once: every state is visited
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				switch (g + i) % 3 {
				case 0:
					b.success()
				case 1:
					b.failure()
				default:
					b.allow()
				}
			}
		}()
	}
	wg.Wait()
	b.success()
	if s := b.current(); s != "closed" || !b.allow() {
		t.Fatalf("after a success the breaker is %s", s)
	}
	for range breakerThreshold {
		b.failure()
	}
	if s := b.current(); s != "open" {
		t.Fatalf("after %d failures in a row the breaker is %s, want open", breakerThreshold, s)
	}
}
