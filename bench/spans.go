package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around a call into the program (never inside it). Spans of
// one request share Req; Parent is the span that caused this one (0 for a
// root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the pass ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall-clock instant to recorder nanoseconds.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records a finished span and returns its id.
func (r *recorder) add(parent, req int, layer, name string, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: start, End: end})
	return id
}

// time runs f inside a span and returns the span id and its duration in
// seconds. Children recorded by f name the returned id as their parent
// through the id callback argument.
func (r *recorder) time(parent, req int, layer, name string, f func(id int)) (int, float64) {
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name})
	r.mu.Unlock()
	t0 := time.Now()
	f(id)
	t1 := time.Now()
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = r.at(t0), r.at(t1)
	r.mu.Unlock()
	return id, t1.Sub(t0).Seconds()
}

// selfTimes derives every span's self time: its duration minus the part
// its children cover.
func (r *recorder) selfTimes() map[int]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int][]interval)
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(r.spans))
	for _, s := range r.spans {
		out[s.ID] = selfTime(interval{s.Start, s.End}, kids[s.ID])
	}
	return out
}

// selfByLayer sums self time per layer, in seconds.
func (r *recorder) selfByLayer() map[string]float64 {
	self := r.selfTimes()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{}
	for _, s := range r.spans {
		out[s.Layer] += float64(self[s.ID]) * 1e-9
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
