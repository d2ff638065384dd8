package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// tailLadder is the fixed set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile applies the reporting rule for timings: the highest
// percentile of the ladder that still has at least ten samples beyond it.
// With fewer than twenty samples even the median does not qualify and ok
// is false — the caller then reports the median alone with its count.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	n := float64(len(xs))
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		if math.Floor(n*(100-p)/100+1e-9) >= 10 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

// spread is the run-to-run spread rule used everywhere in this benchmark
// (and by the driver): the distance between the first and third quartile
// as a share of the median. With fewer than four values quartiles mean
// little, so it falls back to the full range.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	if len(xs) < 4 {
		return (quantile(xs, 1) - quantile(xs, 0)) / math.Abs(m)
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent and overlapping children are counted
// once.
func selfTime(parent interval, children []interval) int64 {
	total := parent.end - parent.start
	if total <= 0 {
		return 0
	}
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered, curEnd int64 = 0, parent.start
	for _, c := range cs {
		if c.start > curEnd {
			curEnd = c.start
		}
		if c.end > curEnd {
			covered += c.end - curEnd
			curEnd = c.end
		}
	}
	return total - covered
}
