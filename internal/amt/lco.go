package amt

import "sync"

// LCO is a local control object (paper, Section III): an event-driven
// synchronization object with input slots, a predicate that decides when it
// has been triggered (here: an input count, the reduction style DASHMM
// uses), and continuations executed as lightweight threads once triggered.
//
// The payload reduction itself is performed by the caller inside Input's
// critical section via the reduce callback, mirroring the DASHMM custom LCO
// that "continuously reduce[s] input data into the stored expansion data".
type LCO struct {
	mu        sync.Mutex
	needed    int    // guarded by mu
	arrived   int    // guarded by mu
	overflow  int    // guarded by mu
	triggered bool   // guarded by mu
	conts     []Task // guarded by mu
	home      *Locality
}

// NewLCO creates an LCO expecting `inputs` inputs, homed on the given
// locality (where its continuations will execute). An LCO expecting zero
// inputs is born triggered.
func NewLCO(home *Locality, inputs int) *LCO {
	return &LCO{needed: inputs, home: home, triggered: inputs <= 0}
}

// Home returns the locality owning the LCO.
func (l *LCO) Home() *Locality { return l.home }

// Register adds a continuation to run once the LCO triggers. If the LCO has
// already triggered the continuation is spawned immediately (HPX-5
// semantics for late registration).
func (l *LCO) Register(t Task) {
	l.mu.Lock()
	if l.triggered {
		l.mu.Unlock()
		l.home.Spawn(t)
		return
	}
	l.conts = append(l.conts, t)
	l.mu.Unlock()
}

// Input delivers one input: reduce runs under the LCO lock (serializing
// concurrent reductions into the payload), and if this was the last
// expected input the LCO triggers, spawning every registered continuation
// on the home locality.
//
// An input past `needed` is rejected — reduce does not run, the overflow
// counter bumps, and Input returns false. This makes a duplicated wire
// delivery (or a buggy caller) unable to corrupt the reduced payload or
// re-trigger the LCO: at-least-once input delivery yields exactly-once
// effect.
//
//dashmm:noalloc
func (l *LCO) Input(reduce func()) bool {
	l.mu.Lock()
	if l.arrived >= l.needed {
		l.overflow++
		l.mu.Unlock()
		return false
	}
	if reduce != nil {
		reduce()
	}
	l.arrived++
	fire := !l.triggered && l.arrived >= l.needed
	var conts []Task
	if fire {
		l.triggered = true
		conts = l.conts
		l.conts = nil
	}
	l.mu.Unlock()
	for _, t := range conts {
		l.home.Spawn(t)
	}
	return true
}

// Reset re-arms the LCO to expect `inputs` fresh inputs, discarding its
// arrival/overflow counts and any still-registered continuations. It is the
// rebuild step for an LCO whose partial state was lost with its owner: the
// payload is re-zeroed by the caller (outside the LCO, which does not own
// it), the counts restart, and re-sent contributions reduce into it again —
// idempotent re-registration instead of double-counting.
// It also re-homes the LCO if the owner moved. Resetting to zero inputs
// leaves the LCO triggered (matching NewLCO).
func (l *LCO) Reset(home *Locality, inputs int) {
	l.mu.Lock()
	l.needed = inputs
	l.arrived = 0
	l.overflow = 0
	l.triggered = inputs <= 0
	l.conts = nil
	if home != nil {
		l.home = home
	}
	l.mu.Unlock()
}

// Triggered reports whether the LCO has fired.
func (l *LCO) Triggered() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.triggered
}

// Arrived returns how many inputs have been accepted so far.
func (l *LCO) Arrived() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.arrived
}

// Needed returns the LCO's input-count trigger threshold.
func (l *LCO) Needed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.needed
}

// Overflow returns how many inputs were rejected past Needed.
func (l *LCO) Overflow() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.overflow
}

// Future is a single-assignment LCO carrying a value, one of the built-in
// LCO classes HPX-5 ships (Section III).
type Future struct {
	lco LCO
	val any
}

// NewFuture creates an unset future homed on the locality.
func NewFuture(home *Locality) *Future {
	return &Future{lco: LCO{needed: 1, home: home}}
}

// Set assigns the value and triggers the future. Setting twice panics.
func (f *Future) Set(v any) {
	f.lco.mu.Lock()
	if f.lco.triggered {
		f.lco.mu.Unlock()
		panic("amt: future set twice")
	}
	f.val = v
	f.lco.triggered = true
	conts := f.lco.conts
	f.lco.conts = nil
	f.lco.mu.Unlock()
	for _, t := range conts {
		f.lco.home.Spawn(t)
	}
}

// Then runs t (receiving the value) once the future is set.
func (f *Future) Then(t func(w *Worker, v any)) {
	f.lco.Register(func(w *Worker) { t(w, f.val) })
}

// Reduction is an LCO that folds inputs with a user operation and exposes
// the final value, e.g. a sum across contributors (the example in Section
// III).
type Reduction struct {
	lco LCO
	val float64 // guarded by LCO.mu
	op  func(acc, in float64) float64
}

// NewReduction creates a reduction over `inputs` inputs with the given fold
// and initial value.
func NewReduction(home *Locality, inputs int, init float64, op func(acc, in float64) float64) *Reduction {
	return &Reduction{lco: LCO{needed: inputs, home: home}, val: init, op: op}
}

// Input folds one value into the reduction.
//
//dashmm:locked LCO.mu — the fold closure runs inside LCO.Input's critical section, which is the lock guarding val.
func (r *Reduction) Input(v float64) {
	//lint:ignore lockorder the dashmm:locked line documents the fold closure's context inside LCO.Input, not Input's caller — nothing is held at this call
	r.lco.Input(func() { r.val = r.op(r.val, v) })
}

// Then runs t with the final value once all inputs have arrived.
func (r *Reduction) Then(t func(w *Worker, v float64)) {
	r.lco.Register(func(w *Worker) {
		r.lco.mu.Lock()
		v := r.val
		r.lco.mu.Unlock()
		t(w, v)
	})
}
