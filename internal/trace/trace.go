// Package trace implements the event tracing and utilization analysis of
// Section V-B of the paper. Executors record one event per operator
// application (class, worker, start, end); the analysis divides the
// evaluation into M uniform intervals and computes the utilization fraction
//
//	f_k^(i) = dt_k^(i) / (n dt_k)         (paper Eq. 1)
//	f_k     = sum_i f_k^(i)               (paper Eq. 2)
//
// where dt_k^(i) is the time spent in operator class i during interval k
// and n is the total number of scheduler threads.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Event is one recorded operator execution. Times are nanoseconds on the
// executor's clock (wall time for the real runtime, virtual time for the
// simulator).
type Event struct {
	Class    uint8
	Worker   int32 // global worker id (locality * workersPerLocality + w)
	Locality int32
	Start    int64
	End      int64
}

// Tracer collects events from concurrent workers. Each worker writes to its
// own buffer; Snapshot merges them.
type Tracer struct {
	mu sync.Mutex
	// buffers is sliced per worker: buffers[w] is owned by worker w while it
	// runs (see Record), and the whole slice is guarded by mu whenever any
	// cross-worker reader (Snapshot, Reset) touches it.
	buffers [][]Event // guarded by mu
	epoch   time.Time // guarded by mu
	enabled bool
}

// New returns a Tracer with per-worker buffers for the given worker count.
func New(workers int) *Tracer {
	return &Tracer{buffers: make([][]Event, workers), epoch: time.Now(), enabled: true}
}

// Enabled reports whether the tracer records events; a nil Tracer is
// disabled.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// SetEnabled switches event recording on or off. A long-lived evaluation
// context can keep a tracer attached permanently and enable it only for
// requests that asked for a capture; the disabled state costs one boolean
// check per recorded event. It must not be flipped while workers are
// actively recording (the serving layer serializes it with evaluations).
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.enabled = on
}

// Now returns the tracer-relative timestamp in nanoseconds.
//
//lint:ignore lockguard epoch is immutable while workers run; Reset rewrites it only between evaluations.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Record appends an event to worker w's buffer. It must be called only from
// that worker.
func (t *Tracer) Record(w int, ev Event) {
	if t == nil || !t.enabled {
		return
	}
	//lint:ignore lockguard per-worker buffer: only worker w appends to buffers[w], and Snapshot/Reset run only between evaluations.
	t.buffers[w] = append(t.buffers[w], ev)
}

// Snapshot returns all events recorded so far, sorted by start time.
func (t *Tracer) Snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []Event
	for _, b := range t.buffers {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// Reset discards all recorded events and restarts the clock.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.buffers {
		t.buffers[i] = t.buffers[i][:0]
	}
	t.epoch = time.Now()
}

// Utilization is the result of the interval analysis.
type Utilization struct {
	// Intervals is M, the number of uniform intervals.
	Intervals int
	// Workers is n, the number of scheduler threads.
	Workers int
	// Span is the analyzed time range.
	Start, End int64
	// Total[k] is f_k.
	Total []float64
	// ByClass[c][k] is f_k^(c) for every class that appears.
	ByClass map[uint8][]float64
}

// Analyze computes the utilization fractions over m uniform intervals of
// the span [start, end] for n workers. Events outside the span are clipped.
func Analyze(events []Event, n, m int, start, end int64) *Utilization {
	if end <= start || m <= 0 || n <= 0 {
		return &Utilization{Intervals: m, Workers: n, Start: start, End: end,
			Total: make([]float64, m), ByClass: map[uint8][]float64{}}
	}
	u := &Utilization{
		Intervals: m, Workers: n, Start: start, End: end,
		Total:   make([]float64, m),
		ByClass: make(map[uint8][]float64),
	}
	span := end - start
	dt := float64(span) / float64(m)
	for _, ev := range events {
		s, e := ev.Start, ev.End
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		if e <= s {
			continue
		}
		cls := u.ByClass[ev.Class]
		if cls == nil {
			cls = make([]float64, m)
			u.ByClass[ev.Class] = cls
		}
		// Distribute the event's duration over the intervals it spans.
		k0 := int(float64(s-start) / dt)
		k1 := int(float64(e-start) / dt)
		if k0 >= m {
			k0 = m - 1
		}
		if k1 >= m {
			k1 = m - 1
		}
		for k := k0; k <= k1; k++ {
			ivStart := start + int64(float64(k)*dt)
			ivEnd := start + int64(float64(k+1)*dt)
			a, b := s, e
			if a < ivStart {
				a = ivStart
			}
			if b > ivEnd {
				b = ivEnd
			}
			if b > a {
				cls[k] += float64(b - a)
			}
		}
	}
	norm := float64(n) * dt
	for c, vals := range u.ByClass {
		for k := range vals {
			vals[k] /= norm
			u.Total[k] += vals[k]
		}
		u.ByClass[c] = vals
	}
	return u
}

// Span returns the [min start, max end] of the events.
func Span(events []Event) (start, end int64) {
	if len(events) == 0 {
		return 0, 0
	}
	start, end = events[0].Start, events[0].End
	for _, ev := range events {
		if ev.Start < start {
			start = ev.Start
		}
		if ev.End > end {
			end = ev.End
		}
	}
	return start, end
}

// AvgMicrosByClass returns the average event duration per class in
// microseconds (the t_avg column of Table II).
func AvgMicrosByClass(events []Event) map[uint8]float64 {
	sum := map[uint8]float64{}
	cnt := map[uint8]int{}
	for _, ev := range events {
		sum[ev.Class] += float64(ev.End - ev.Start)
		cnt[ev.Class]++
	}
	out := make(map[uint8]float64, len(sum))
	for c, s := range sum {
		out[c] = s / float64(cnt[c]) / 1000
	}
	return out
}

// starvationExitFrac is the explicit exit hysteresis of the dip scan: once
// a dip has been entered (utilization below frac*plateau), it persists
// until utilization recovers above starvationExitFrac*plateau. The exit
// threshold sits above any sensible entry threshold so a dip that wobbles
// around the entry level is reported as one dip, not many.
const starvationExitFrac = 0.97

// Starvation locates the end-of-run underutilization dip the paper observes
// (Fig. 4): the longest run of trailing intervals, ending before the final
// ramp-down, whose utilization is below frac of the plateau. It returns the
// dip's first and last interval indices and the plateau level; found is
// false if utilization never drops below frac*plateau after the warmup.
//
// Entry and exit use explicit hysteresis: the dip starts at the first
// interval below frac*plateau and extends while utilization stays below
// starvationExitFrac*plateau. Because the exit threshold is looser than the
// entry one, an unguarded scan would run straight through the run's final
// ramp-down (the last intervals, where utilization falls to zero simply
// because the work drains) and overstate the dip width; the trailing
// monotone decline that touches the end of the run is therefore trimmed
// back off the reported dip.
func (u *Utilization) Starvation(frac float64) (first, last int, plateau float64, found bool) {
	m := u.Intervals
	if m == 0 {
		return 0, 0, 0, false
	}
	// Plateau: median of the middle half of the run. For runs analyzed over
	// very few intervals the middle-half slice [m/4, 3m/4) can be empty
	// (m < 4) — fall back to the median of the whole profile instead of
	// silently reporting "no dip".
	mid := append([]float64(nil), u.Total[m/4:3*m/4]...)
	if len(mid) == 0 {
		mid = append(mid, u.Total...)
	}
	sort.Float64s(mid)
	plateau = mid[len(mid)/2]
	thresh := frac * plateau
	exit := starvationExitFrac * plateau
	if exit < thresh {
		exit = thresh // hysteresis must never be tighter than the entry
	}
	// Scan from 20% (skipping the startup ramp) for the first dip.
	for k := m / 5; k < m; k++ {
		if u.Total[k] < thresh {
			first = k
			last = k
			for last+1 < m && u.Total[last+1] < exit {
				last++
			}
			// If the hysteresis carried the dip into the terminal
			// ramp-down, trim the monotone non-increasing tail that ends
			// the run: those intervals are the evaluation finishing, not
			// scheduler starvation.
			if last == m-1 {
				for last > first && u.Total[last] <= u.Total[last-1] && u.Total[last] < thresh {
					last--
				}
			}
			return first, last, plateau, true
		}
	}
	return 0, 0, plateau, false
}
