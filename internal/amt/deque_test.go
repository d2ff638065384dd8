package amt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDequeOwnerLIFOThiefFIFO checks the two consumption orders of the
// Chase–Lev deque.
func TestDequeOwnerLIFOThiefFIFO(t *testing.T) {
	var d wsDeque
	d.init()
	var got []int
	for i := 0; i < 4; i++ {
		i := i
		d.push(func(*Worker) { got = append(got, i) })
	}
	// Owner pops newest first.
	for want := 3; want >= 2; want-- {
		task, ok := d.pop()
		if !ok {
			t.Fatal("pop on non-empty deque failed")
		}
		task(nil)
		if got[len(got)-1] != want {
			t.Fatalf("owner pop order: got %v, want newest-first", got)
		}
	}
	// Thief steals oldest first.
	for want := 0; want <= 1; want++ {
		task, ok := d.steal()
		if !ok {
			t.Fatal("steal on non-empty deque failed")
		}
		task(nil)
		if got[len(got)-1] != want {
			t.Fatalf("thief steal order: got %v, want oldest-first", got)
		}
	}
	if _, ok := d.pop(); ok {
		t.Fatal("pop on empty deque succeeded")
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal on empty deque succeeded")
	}
}

// TestDequeGrowth pushes far beyond the initial ring and checks nothing is
// lost or duplicated across the generations.
func TestDequeGrowth(t *testing.T) {
	var d wsDeque
	d.init()
	const n = 10 * initialRingSize
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		d.push(func(*Worker) { counts[i]++ })
	}
	if c := d.capacity(); c < n {
		t.Fatalf("capacity %d after %d pushes", c, n)
	}
	for i := 0; i < n; i++ {
		task, ok := d.pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		task(nil)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

// TestDequeCapacityStableUnderChurn is the retention regression test of
// the ISSUE (the old slice lanes grew their backing arrays monotonically
// under steal traffic: w.high = w.high[1:] never released the prefix).
// Sustained push/pop/steal churn at a bounded live size must not grow the
// ring.
func TestDequeCapacityStableUnderChurn(t *testing.T) {
	var d wsDeque
	d.init()
	cap0 := d.capacity()
	nop := Task(func(*Worker) {})
	for cycle := 0; cycle < 10000; cycle++ {
		for i := 0; i < 8; i++ {
			d.push(nop)
		}
		// Mixed consumption: half stolen (FIFO, the old leak path), half
		// popped.
		for i := 0; i < 4; i++ {
			if _, ok := d.steal(); !ok {
				t.Fatal("steal failed on non-empty deque")
			}
		}
		for i := 0; i < 4; i++ {
			if _, ok := d.pop(); !ok {
				t.Fatal("pop failed on non-empty deque")
			}
		}
	}
	if c := d.capacity(); c != cap0 {
		t.Fatalf("ring grew from %d to %d under bounded churn", cap0, c)
	}
}

// TestDequePopClearsSlots checks that owner pops drop the task reference
// (both the multi-element plain-clear path and the last-element CAS path)
// so a drained deque does not retain arbitrary task graphs.
func TestDequePopClearsSlots(t *testing.T) {
	var d wsDeque
	d.init()
	live := Task(func(*Worker) {})
	d.push(live)
	d.push(live)
	if _, ok := d.pop(); !ok { // b > t path
		t.Fatal("pop failed")
	}
	if _, ok := d.pop(); !ok { // last-element CAS path
		t.Fatal("pop failed")
	}
	r := d.buf.Load()
	for i := range r.slot {
		if p := atomic.LoadPointer(&r.slot[i]); p != nil {
			t.Fatalf("slot %d retains a task pointer after pops", i)
		}
	}
}

// TestDequeStealContentionExactlyOnce hammers the racy last-element path:
// many rounds of 1-element deques fought over by owner pop and concurrent
// thieves; every task must run exactly once.
func TestDequeStealContentionExactlyOnce(t *testing.T) {
	const (
		rounds  = 20000
		thieves = 4
	)
	var d wsDeque
	d.init()
	var executed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if task, ok := d.steal(); ok {
					task(nil)
				}
			}
		}()
	}
	one := Task(func(*Worker) { executed.Add(1) })
	for r := 0; r < rounds; r++ {
		d.push(one)
		if task, ok := d.pop(); ok {
			task(nil)
		}
	}
	// Wait for thieves to drain any leftovers before stopping them
	// (wg.Wait then guarantees every claimed task finished executing).
	for d.size() > 0 {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if got := executed.Load(); got != rounds {
		t.Fatalf("executed %d of %d tasks (lost or duplicated under contention)", got, rounds)
	}
}

// TestDequeConcurrentStealsPartition checks that a batch pushed by the
// owner is partitioned exactly among concurrent thieves and the owner.
func TestDequeConcurrentStealsPartition(t *testing.T) {
	const n = 50000
	var d wsDeque
	d.init()
	counts := make([]atomic.Int32, n)
	for i := 0; i < n; i++ {
		i := i
		d.push(func(*Worker) { counts[i].Add(1) })
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				task, ok := d.steal()
				if !ok {
					if d.size() == 0 {
						return
					}
					continue
				}
				task(nil)
			}
		}()
	}
	for {
		task, ok := d.pop()
		if !ok {
			break
		}
		task(nil)
	}
	wg.Wait()
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

// TestInboxDrainRecyclesBuffers checks the inbox drain swaps buffers
// without retaining task references and without allocating in steady
// state (the spare double-buffer).
func TestInboxDrainRecyclesBuffers(t *testing.T) {
	w := &Worker{}
	w.tasks.init()
	ran := 0
	for cycle := 0; cycle < 100; cycle++ {
		for i := 0; i < 16; i++ {
			w.in.add(func(*Worker) { ran++ })
		}
		if !w.in.drain(w) {
			t.Fatal("drain moved nothing")
		}
		if w.in.n.Load() != 0 {
			t.Fatal("inbox count nonzero after drain")
		}
		for {
			task, ok := w.tasks.pop()
			if !ok {
				break
			}
			task(nil)
		}
	}
	if ran != 100*16 {
		t.Fatalf("ran %d of %d inbox tasks", ran, 100*16)
	}
	for i, task := range w.spare[:cap(w.spare)] {
		if task != nil {
			t.Fatalf("spare buffer slot %d retains a task reference", i)
		}
	}
}
