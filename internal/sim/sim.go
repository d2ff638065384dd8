// Package sim is a discrete-event simulator that replays the explicit DAG
// of an evaluation on a configurable machine: L localities of C cores each,
// a latency+bandwidth network, and a choice of scheduling disciplines. It
// substitutes for the 4096-core Cray XE6 of the paper's evaluation (see
// DESIGN.md, substitution 1): per-operator costs are calibrated from real
// traced executions, the DAG and its distribution are exactly those the
// real runtime executes, and the scheduling discipline mirrors HPX-5's
// critical-path-oblivious work stealing — or, for the Section VI ablation,
// a priority-aware variant.
package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/dag"
	"repro/internal/trace"
)

// Scheduler selects the task-ordering discipline of each locality's ready
// pool.
type Scheduler int

// Disciplines.
const (
	// FIFO approximates HPX-5's critical-path-oblivious scheduling: tasks
	// run in arrival order regardless of graph position.
	FIFO Scheduler = iota
	// LIFO runs the most recently readied task first (cache-friendly depth
	// first).
	LIFO
	// Priority is the paper's proposed fix (Sections V-C and VI): a binary
	// high/low priority where work feeding the critical path — the upward
	// source-tree sweep — runs as soon as it is ready.
	Priority
	// Levelwise is the SPMD baseline of the introduction: the DAG is
	// executed in strict level-by-level phases with a global barrier
	// between phases; within a phase tasks run in arrival order.
	Levelwise
)

func (s Scheduler) String() string {
	switch s {
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	case Priority:
		return "priority"
	case Levelwise:
		return "levelwise"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// Config describes the simulated machine and run.
type Config struct {
	Localities int
	Cores      int // per locality
	Model      CostModel
	Sched      Scheduler
	// CollectEvents records per-edge trace events in virtual time for the
	// utilization analysis (Figs. 4 and 5).
	CollectEvents bool
}

// Result of a simulated run.
type Result struct {
	// Makespan is the virtual wall time in nanoseconds.
	Makespan float64
	// TotalWork is the sum of all edge costs (the sequential time).
	TotalWork float64
	// Messages and MessageBytes count inter-locality parcels.
	Messages     int64
	MessageBytes int64
	// Events holds the virtual trace if requested.
	Events []trace.Event
	// TasksRun counts scheduled tasks.
	TasksRun int64
}

// Efficiency returns the parallel efficiency relative to a baseline
// (typically the 1-locality makespan): eff = base / (scale * makespan).
func Efficiency(base, makespan float64, scale float64) float64 {
	return base / (makespan * scale)
}

// task is one schedulable unit: a node trigger processing local out-edges,
// or an arrived parcel applying a group of edges.
type task struct {
	node  int32
	edges []dag.Edge // nil: the node's own local out-edges
	bytes int        // parcel payload size (parcel tasks only)
	prio  int
	phase int32 // levelwise phase index
	seq   int64 // arrival order tiebreak
}

// event is a DES event: a core finishing, or a message arriving.
type event struct {
	at   float64
	kind int8 // 0: core free, 1: task ready (message arrival or trigger)
	loc  int32
	t    *task
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Run simulates one evaluation of the graph. Node localities must have been
// assigned (dist.MinComm.Assign) before calling.
func Run(g *dag.Graph, cfg Config) Result {
	if cfg.Localities <= 0 {
		cfg.Localities = 1
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	s := &simState{
		g:       g,
		cfg:     cfg,
		remain:  make([]int32, len(g.Nodes)),
		ready:   make([]readyPool, cfg.Localities),
		free:    make([]int, cfg.Localities),
		coreAt:  make([][]float64, cfg.Localities),
		phaseOf: phaseIndex(g),
	}
	for l := 0; l < cfg.Localities; l++ {
		s.free[l] = cfg.Cores
		s.coreAt[l] = make([]float64, cfg.Cores)
		s.ready[l].sched = cfg.Sched
	}
	for i := range g.Nodes {
		s.remain[i] = g.Nodes[i].In
	}
	// Seed: all roots ready at t=0.
	for _, id := range g.Roots() {
		s.enqueue(0, &task{node: id, prio: s.prio(id), phase: s.phaseOf[id]})
	}
	s.drain()
	return s.result
}

// simState carries the DES machinery.
type simState struct {
	g       *dag.Graph
	cfg     Config
	remain  []int32
	events  eventHeap
	ready   []readyPool
	free    []int
	coreAt  [][]float64 // per-core busy-until (for event emission only)
	phaseOf []int32
	phase   int32 // current levelwise phase
	inPhase int64 // running tasks + ready tasks of current phase (levelwise)
	seq     int64
	result  Result
	now     float64
}

// prio maps a node to its binary-ish priority: the upward source-tree sweep
// (S and M nodes) first, the bridge next, the downward sweep last.
func (s *simState) prio(id int32) int {
	switch s.g.Nodes[id].Kind {
	case dag.NodeS, dag.NodeM:
		return 0
	case dag.NodeIs, dag.NodeIt:
		return 1
	default:
		return 2
	}
}

// phaseIndex assigns each node the levelwise phase of its trigger task:
// upward phases by source level (deepest first), bridge, downward by target
// level.
func phaseIndex(g *dag.Graph) []int32 {
	maxSrc := int32(g.Source.MaxLevel)
	maxTgt := int32(g.Target.MaxLevel)
	out := make([]int32, len(g.Nodes))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		lvl := int32(n.Level())
		switch n.Kind {
		case dag.NodeS:
			out[i] = 0
		case dag.NodeM: // deepest level first: phase 1..maxSrc+1
			out[i] = 1 + (maxSrc - lvl)
		case dag.NodeIs:
			out[i] = maxSrc + 2 + (maxSrc - lvl)
		case dag.NodeIt:
			out[i] = 2*maxSrc + 3 + lvl
		case dag.NodeL:
			out[i] = 2*maxSrc + maxTgt + 4 + lvl
		default: // T
			out[i] = 2*maxSrc + 2*maxTgt + 5
		}
	}
	return out
}

// enqueue makes a task ready at time at on its node's locality.
func (s *simState) enqueue(at float64, t *task) {
	t.seq = s.seq
	s.seq++
	heap.Push(&s.events, event{at: at, kind: 1, loc: s.g.Nodes[t.node].Locality, t: t})
}

// drain runs the event loop to completion.
func (s *simState) drain() {
	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(event)
		s.now = ev.at
		if s.now > s.result.Makespan {
			s.result.Makespan = s.now
		}
		switch ev.kind {
		case 1: // task became ready at its locality
			s.ready[ev.loc].push(ev.t)
		case 0: // a core became free
			s.free[ev.loc]++
			if s.cfg.Sched == Levelwise && ev.t != nil {
				s.inPhase--
			}
		}
		if s.cfg.Sched == Levelwise {
			// A finished task may open the phase barrier for every
			// locality.
			for l := range s.ready {
				s.dispatch(l)
			}
		} else {
			s.dispatch(int(ev.loc))
		}
	}
}

// dispatch assigns ready tasks to free cores of locality l.
func (s *simState) dispatch(l int) {
	for s.free[l] > 0 {
		t := s.ready[l].pop(s)
		if t == nil {
			return
		}
		s.free[l]--
		s.runTask(l, t)
	}
}

// runTask executes a task on a core of locality l starting now.
func (s *simState) runTask(l int, t *task) {
	g := s.g
	n := &g.Nodes[t.node]
	m := &s.cfg.Model
	start := s.now
	cur := start + m.TaskOverhead
	if t.bytes > 0 {
		// Receiver-side copy/allocation cost of the arrived parcel; busy
		// time not attributed to any operator class.
		cur += float64(t.bytes) * m.RecvNanosPerByte
	}
	s.result.TasksRun++
	var remote map[int32][]dag.Edge
	edges := t.edges
	own := edges == nil
	if own {
		edges = n.Out
	}
	for _, e := range edges {
		dest := g.Nodes[e.To].Locality
		if own && dest != n.Locality {
			if remote == nil {
				remote = make(map[int32][]dag.Edge)
			}
			remote[dest] = append(remote[dest], e)
			continue
		}
		// Apply the edge here (local edge of a trigger task, or any edge of
		// a parcel task).
		c := Units(g, n, e) * m.OpNanos[e.Op]
		if s.cfg.CollectEvents {
			s.result.Events = append(s.result.Events, trace.Event{
				Class:    uint8(e.Op),
				Locality: int32(l),
				Start:    int64(cur),
				End:      int64(cur + c),
			})
		}
		cur += c
		s.result.TotalWork += c
		s.complete(e.To, cur)
	}
	// Coalesced parcels leave when the task ends.
	for dest, grp := range remote {
		bytes := int(n.Bytes) + 16*len(grp)
		arrive := cur + m.LatencyNanos
		if m.BytesPerNano > 0 {
			arrive += float64(bytes) / m.BytesPerNano
		}
		s.result.Messages++
		s.result.MessageBytes += int64(bytes)
		pt := &task{node: t.node, edges: grp, bytes: bytes, prio: t.prio, phase: t.phase}
		pt.seq = s.seq
		s.seq++
		heap.Push(&s.events, event{at: arrive, kind: 1, loc: dest, t: pt})
	}
	if s.cfg.Sched == Levelwise {
		// The barrier holds until this task's core-free event fires.
		heap.Push(&s.events, event{at: cur, kind: 0, loc: int32(l), t: t})
		return
	}
	heap.Push(&s.events, event{at: cur, kind: 0, loc: int32(l)})
}

// complete delivers one input to a node; the final input readies its
// trigger task at time at on the node's home locality.
func (s *simState) complete(id int32, at float64) {
	s.remain[id]--
	if s.remain[id] == 0 {
		s.enqueue(at, &task{node: id, prio: s.prio(id), phase: s.phaseOf[id]})
	}
}

// readyPool orders the ready tasks of one locality per the discipline.
type readyPool struct {
	sched Scheduler
	fifo  []*task
	pq    taskHeap
}

func (p *readyPool) push(t *task) {
	switch p.sched {
	case FIFO, LIFO:
		p.fifo = append(p.fifo, t)
	default:
		heap.Push(&p.pq, t)
	}
}

func (p *readyPool) pop(s *simState) *task {
	switch p.sched {
	case FIFO:
		if len(p.fifo) == 0 {
			return nil
		}
		t := p.fifo[0]
		p.fifo = p.fifo[1:]
		return t
	case LIFO:
		if len(p.fifo) == 0 {
			return nil
		}
		t := p.fifo[len(p.fifo)-1]
		p.fifo = p.fifo[:len(p.fifo)-1]
		return t
	case Priority:
		if p.pq.Len() == 0 {
			return nil
		}
		return heap.Pop(&p.pq).(*task)
	default: // Levelwise: only tasks of the current global phase may run
		if p.pq.Len() == 0 {
			return nil
		}
		t := p.pq[0]
		if t.phase > s.phase {
			// Barrier: may this locality advance the phase? Only when no
			// task of the current phase is ready or running anywhere.
			if s.phaseDone() {
				s.phase = t.phase
			} else {
				return nil
			}
		}
		t = heap.Pop(&p.pq).(*task)
		s.inPhase++
		return t
	}
}

// phaseDone reports whether no ready or running task belongs to a phase
// <= the current one (levelwise barrier condition).
func (s *simState) phaseDone() bool {
	if s.inPhase > 0 {
		return false
	}
	for l := range s.ready {
		for _, t := range s.ready[l].pq {
			if t.phase <= s.phase {
				return false
			}
		}
	}
	// Any in-flight readiness events for the current phase also block.
	for _, ev := range s.events {
		if ev.kind == 1 && ev.t != nil && ev.t.phase <= s.phase {
			return false
		}
	}
	return true
}

// taskHeap orders by (phase or priority, arrival).
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	if h[i].phase != h[j].phase {
		return h[i].phase < h[j].phase
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x interface{}) { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}
