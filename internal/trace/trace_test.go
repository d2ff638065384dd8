package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func TestAnalyzeFullUtilization(t *testing.T) {
	// Two workers busy over the whole span: f_k must be 1 everywhere.
	var events []Event
	for w := 0; w < 2; w++ {
		for s := int64(0); s < 1000; s += 100 {
			events = append(events, Event{Class: 1, Worker: int32(w), Start: s, End: s + 100})
		}
	}
	u := Analyze(events, 2, 10, 0, 1000)
	for k, v := range u.Total {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("f_%d = %v, want 1", k, v)
		}
	}
}

func TestAnalyzeHalfUtilization(t *testing.T) {
	// One of two workers busy: f_k = 0.5.
	var events []Event
	for s := int64(0); s < 1000; s += 50 {
		events = append(events, Event{Class: 2, Start: s, End: s + 50})
	}
	u := Analyze(events, 2, 4, 0, 1000)
	for k, v := range u.Total {
		if math.Abs(v-0.5) > 1e-9 {
			t.Errorf("f_%d = %v, want 0.5", k, v)
		}
	}
}

func TestAnalyzeEventSpanningIntervals(t *testing.T) {
	// A single event spanning the whole range distributes evenly.
	events := []Event{{Class: 3, Start: 0, End: 1000}}
	u := Analyze(events, 1, 10, 0, 1000)
	for k, v := range u.Total {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("f_%d = %v, want 1", k, v)
		}
	}
}

func TestAnalyzeByClassSumsToTotal(t *testing.T) {
	events := []Event{
		{Class: 0, Start: 0, End: 300},
		{Class: 1, Start: 300, End: 600},
		{Class: 2, Start: 500, End: 900},
	}
	u := Analyze(events, 2, 9, 0, 900)
	for k := range u.Total {
		var sum float64
		for _, vals := range u.ByClass {
			sum += vals[k]
		}
		if math.Abs(sum-u.Total[k]) > 1e-9 {
			t.Errorf("interval %d: class sum %v != total %v", k, sum, u.Total[k])
		}
	}
}

func TestAnalyzeClipsOutOfRange(t *testing.T) {
	events := []Event{{Class: 0, Start: -500, End: 1500}}
	u := Analyze(events, 1, 4, 0, 1000)
	var total float64
	for _, v := range u.Total {
		total += v
	}
	if math.Abs(total-4) > 1e-9 { // each interval fully covered
		t.Errorf("clipped totals %v", u.Total)
	}
}

func TestStarvationDetectsDip(t *testing.T) {
	// Construct a profile: ramp, plateau at 0.9, dip to 0.3 at 70-85%, and
	// recovery.
	m := 100
	events := []Event{}
	span := int64(100000)
	dt := span / int64(m)
	level := func(k int) float64 {
		switch {
		case k < 10:
			return float64(k) / 10 * 0.9
		case k >= 70 && k < 85:
			return 0.3
		default:
			return 0.9
		}
	}
	for k := 0; k < m; k++ {
		dur := int64(level(k) * float64(dt))
		if dur > 0 {
			events = append(events, Event{Class: 0, Start: int64(k) * dt, End: int64(k)*dt + dur})
		}
	}
	u := Analyze(events, 1, m, 0, span)
	first, last, plateau, found := u.Starvation(0.7)
	if !found {
		t.Fatal("dip not found")
	}
	if first < 68 || first > 72 || last < 80 || last > 90 {
		t.Errorf("dip located at [%d,%d], want about [70,85]", first, last)
	}
	if math.Abs(plateau-0.9) > 0.05 {
		t.Errorf("plateau %v, want about 0.9", plateau)
	}
}

// syntheticProfile turns a per-interval utilization level function into an
// event list whose Analyze output reproduces those levels for one worker.
func syntheticProfile(m int, span int64, level func(k int) float64) []Event {
	dt := span / int64(m)
	var events []Event
	for k := 0; k < m; k++ {
		dur := int64(level(k) * float64(dt))
		if dur > 0 {
			events = append(events, Event{Class: 0, Start: int64(k) * dt, End: int64(k)*dt + dur})
		}
	}
	return events
}

// Regression: for m < 4 the middle-half plateau slice u.Total[m/4:3m/4] is
// empty and Starvation used to return a silent false; it must fall back to
// the whole-profile median and still find an obvious dip.
func TestStarvationSmallIntervalCount(t *testing.T) {
	for m := 1; m < 8; m++ {
		span := int64(1000 * m)
		u := Analyze(syntheticProfile(m, span, func(k int) float64 {
			if m >= 2 && k == m-1 {
				return 0.1 // dip in the last interval
			}
			return 0.9
		}), 1, m, 0, span)
		_, _, plateau, found := u.Starvation(0.7)
		if m == 1 {
			// A single 0.9 interval: no dip, but the plateau must still be
			// computed rather than bailing out.
			if found || plateau == 0 {
				t.Errorf("m=1: found=%v plateau=%v", found, plateau)
			}
			continue
		}
		if !found {
			t.Errorf("m=%d: dip in final interval not found (plateau %v)", m, plateau)
		}
	}
}

// Regression: the dip-extension hysteresis (exit at starvationExitFrac of
// the plateau) used to run straight through the final ramp-down, reporting
// a dip that extended to the last interval even though the trailing
// intervals are just the run finishing. The trailing monotone decline must
// be trimmed off the reported width.
func TestStarvationTrimsFinalRampDown(t *testing.T) {
	m := 100
	span := int64(100000)
	u := Analyze(syntheticProfile(m, span, func(k int) float64 {
		switch {
		case k < 10: // startup ramp
			return float64(k) / 10 * 0.9
		case k >= 70 && k < 85: // the genuine starvation dip
			return 0.3
		case k >= 85 && k < 95: // partial recovery below the 0.97 hysteresis
			return 0.8
		case k >= 95: // final ramp-down to zero as work drains
			return 0.8 * float64(m-1-k) / 5
		default:
			return 0.9
		}
	}), 1, m, 0, span)
	first, last, plateau, found := u.Starvation(0.7)
	if !found {
		t.Fatal("dip not found")
	}
	if math.Abs(plateau-0.9) > 0.05 {
		t.Errorf("plateau %v, want about 0.9", plateau)
	}
	if first < 68 || first > 72 {
		t.Errorf("dip starts at %d, want about 70", first)
	}
	// The 0.8 recovery sits below 0.97*0.9 so the hysteresis keeps the dip
	// open through it — but the ramp-down tail from k=95 must be trimmed:
	// the dip must not extend to the final interval.
	if last >= m-1 {
		t.Errorf("dip ran through the final ramp-down: last=%d", last)
	}
	if last > 95 {
		t.Errorf("dip ends at %d, want at or before the ramp-down start (95)", last)
	}
}

func TestStarvationAbsentOnFlatProfile(t *testing.T) {
	m := 50
	span := int64(50000)
	dt := span / int64(m)
	var events []Event
	for k := 0; k < m; k++ {
		events = append(events, Event{Class: 0, Start: int64(k) * dt, End: int64(k)*dt + dt*9/10})
	}
	u := Analyze(events, 1, m, 0, span)
	if _, _, _, found := u.Starvation(0.7); found {
		t.Error("found a dip in a flat profile")
	}
}

func TestTracerRoundTrip(t *testing.T) {
	tr := New(3)
	tr.Record(0, Event{Class: 1, Start: 10, End: 20})
	tr.Record(2, Event{Class: 2, Start: 5, End: 8})
	tr.Record(1, Event{Class: 3, Start: 30, End: 40})
	evs := tr.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	// Sorted by start.
	if evs[0].Class != 2 || evs[1].Class != 1 || evs[2].Class != 3 {
		t.Errorf("wrong order: %+v", evs)
	}
	tr.Reset()
	if len(tr.Snapshot()) != 0 {
		t.Error("reset did not clear events")
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer enabled")
	}
	tr.Record(0, Event{}) // must not panic
}

func TestAvgMicrosByClass(t *testing.T) {
	events := []Event{
		{Class: 7, Start: 0, End: 1000},
		{Class: 7, Start: 0, End: 3000},
		{Class: 9, Start: 0, End: 500},
	}
	avg := AvgMicrosByClass(events)
	if math.Abs(avg[7]-2) > 1e-9 {
		t.Errorf("avg class 7 = %v, want 2", avg[7])
	}
	if math.Abs(avg[9]-0.5) > 1e-9 {
		t.Errorf("avg class 9 = %v, want 0.5", avg[9])
	}
}

func TestSpan(t *testing.T) {
	s, e := Span([]Event{{Start: 5, End: 10}, {Start: 2, End: 7}, {Start: 6, End: 20}})
	if s != 2 || e != 20 {
		t.Errorf("span [%d,%d], want [2,20]", s, e)
	}
	s, e = Span(nil)
	if s != 0 || e != 0 {
		t.Errorf("empty span [%d,%d]", s, e)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	events := []Event{
		{Class: 1, Worker: 0, Locality: 0, Start: 10, End: 20},
		{Class: 9, Worker: 3, Locality: 1, Start: 15, End: 40},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events", len(got))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Errorf("event %d: %+v vs %+v", i, got[i], events[i])
		}
	}
	// Empty round trip.
	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadJSON(&buf); err != nil || len(got) != 0 {
		t.Errorf("empty round trip: %v %v", got, err)
	}
}

// Regression: a trace file cut off mid-record must surface
// io.ErrUnexpectedEOF (with the complete prefix still returned) instead of
// silently succeeding with the tail dropped.
func TestReadJSONTruncated(t *testing.T) {
	events := []Event{
		{Class: 1, Worker: 0, Start: 10, End: 20},
		{Class: 2, Worker: 1, Start: 30, End: 45},
		{Class: 3, Worker: 0, Start: 50, End: 60},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut inside the final record (drop the last 5 bytes: "}\n" and part of
	// the value before it).
	cut := full[:len(full)-5]
	got, err := ReadJSON(bytes.NewReader(cut))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-record truncation: err=%v, want io.ErrUnexpectedEOF", err)
	}
	if len(got) != 2 {
		t.Errorf("got %d complete events, want 2", len(got))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Errorf("prefix event %d: %+v vs %+v", i, got[i], events[i])
		}
	}
	// Cut exactly the final newline: the last record parses but the file is
	// still flagged as truncated (WriteJSON terminates every line).
	got, err = ReadJSON(bytes.NewReader(full[:len(full)-1]))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("missing final newline: err=%v, want io.ErrUnexpectedEOF", err)
	}
	if len(got) != 3 {
		t.Errorf("got %d events, want all 3", len(got))
	}
	// Interior corruption is a malformed-event error, not a truncation.
	corrupt := append([]byte("this is not json\n"), full...)
	if _, err := ReadJSON(bytes.NewReader(corrupt)); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("corrupt line: err=%v, want a malformed-event error", err)
	}
	// An intact file still reads cleanly.
	if got, err := ReadJSON(bytes.NewReader(full)); err != nil || len(got) != 3 {
		t.Errorf("intact file: %d events, err=%v", len(got), err)
	}
}
