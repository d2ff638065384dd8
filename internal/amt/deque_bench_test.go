package amt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkDequePushPop measures the uncontended owner fast path: one
// goroutine alternating push and pop (the dominant pattern during the
// saturated plateau, when every worker feeds on its own deque).
func BenchmarkDequePushPop(b *testing.B) {
	nop := Task(func(*Worker) {})
	var d wsDeque
	d.init()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.push(nop)
		if _, ok := d.pop(); !ok {
			b.Fatal("pop failed")
		}
	}
}

// BenchmarkStealContention has one owner working its deque while the other
// 7 simulated workers steal from it. The owner produces a net surplus (two
// pushes, one pop per iteration) so steals land on a non-empty deque and
// the thieves perform real deque mutations; a thief that finds nothing
// yields, like the scheduler's backoff loop, rather than burning the
// timeslice. Reported ns/op is the owner's push/push/pop cycle under that
// steal traffic — the Chase–Lev owner is wait-free and at worst loses a
// last-element CAS. steals/op close to 1.0 confirms the thieves kept up
// with the surplus.
func BenchmarkStealContention(b *testing.B) {
	const workers = 8
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	nop := Task(func(*Worker) {})
	var d wsDeque
	d.init()
	var stop atomic.Bool
	var stolen atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, ok := d.steal(); ok {
					stolen.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	// Seed the deque so thieves have work from the first iteration.
	for i := 0; i < 256; i++ {
		d.push(nop)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.push(nop)
		d.push(nop)
		d.pop()
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	for _, ok := d.steal(); ok; _, ok = d.steal() {
	}
	b.ReportMetric(float64(stolen.Load())/float64(b.N), "steals/op")
}
