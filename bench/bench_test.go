package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{12, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v, ok := tailPercentile(xs)
		if ok != c.ok || p != c.want {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.want, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestQuantileAndSpread(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("q1 = %v, want 2", q)
	}
	if s := spread(xs); math.Abs(s-2.0/3) > 1e-12 {
		t.Errorf("spread = %v, want 2/3", s)
	}
	if s := spread([]float64{10, 11}); math.Abs(s-1/10.5) > 1e-12 {
		t.Errorf("two-value spread = %v, want range/median", s)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestCalibrationNormalisation(t *testing.T) {
	// An idle reference box leaves a duration unchanged.
	if got := calibrated(2, calibRefS, calibRefS); math.Abs(got-2) > 1e-12 {
		t.Errorf("idle box: %v, want 2", got)
	}
	// A box running 30% slow stretches sample and loop alike; the
	// calibrated value does not move.
	if got := calibrated(2*1.3, calibRefS*1.3, calibRefS*1.3); math.Abs(got-2) > 1e-12 {
		t.Errorf("slow box: %v, want 2", got)
	}
	// Drift during the sample is split between the two brackets.
	if got := calibrated(2.2, calibRefS, calibRefS*1.2); math.Abs(got-2) > 1e-12 {
		t.Errorf("drifting box: %v, want 2", got)
	}
	// The loop itself runs, takes time and is deterministic work.
	c := newCalibrator(2)
	if d := c.sample(); d <= 0 || d > 5 {
		t.Errorf("calibration sample took %v s", d)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		kids []interval
		want int64
	}{
		{nil, 100},
		{[]interval{{110, 130}}, 80},
		{[]interval{{110, 130}, {120, 150}}, 60},             // overlap counted once
		{[]interval{{50, 120}, {190, 400}}, 70},              // clipped to the parent
		{[]interval{{100, 200}, {120, 130}}, 0},              // fully covered
		{[]interval{{300, 400}, {150, 150}}, 100},            // outside or empty
		{[]interval{{160, 170}, {110, 120}, {120, 160}}, 40}, // unsorted, adjacent
	}
	for i, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("case %d: self = %d, want %d", i, got, c.want)
		}
	}

	r := newRecorder()
	root := r.add(0, 0, "bench", "root", 0, 1000)
	a := r.add(root, 0, "core", "a", 100, 500)
	r.add(a, 0, "kernel", "a1", 200, 300)
	r.add(root, 0, "core", "b", 600, 900)
	self := r.selfTimes()
	if self[root] != 300 || self[a] != 300 {
		t.Errorf("recorder self times: root %d a %d, want 300 300", self[root], self[a])
	}
	by := r.selfByLayer()
	if math.Abs(by["core"]-600e-9) > 1e-15 || math.Abs(by["kernel"]-100e-9) > 1e-15 {
		t.Errorf("self by layer: %v", by)
	}
}

func TestJudge(t *testing.T) {
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m * 1.005} }
	noisy := func(m float64) []float64 { return []float64{m * 0.8, m, m * 1.3, m * 0.9} }
	cases := []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", tight(1), tight(1.02), false, vUnchanged},
		{"slower beyond bound", tight(1), tight(1.2), false, vRegressed},
		{"faster beyond spread", tight(1), tight(0.9), false, vImproved},
		{"throughput down", tight(10), tight(8), true, vRegressed},
		{"throughput up", tight(10), tight(12), true, vImproved},
		{"noisy overlap", noisy(1), noisy(1.05), false, vUnresolved},
		{"noisy but disjoint better", noisy(1), noisy(0.5), false, vImproved},
		{"noisy and disjoint worse", noisy(1), noisy(2), false, vRegressed},
	}
	for _, c := range cases {
		if got, _, _, _ := judge(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRegistryMatchesBenchmarkJSON holds the names the binary emits to the
// names the driver reads, and both to the driver's grammar.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the driver's grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q, binary has %q (or their reasons differ)", i, f.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, file, reg []metricDef, bounded bool) {
		if len(file) != len(reg) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(file), len(reg))
		}
		for i, m := range reg {
			name(m.Name)
			if file[i] != m {
				t.Errorf("%s %d: file has %+v, binary has %+v", kind, i, file[i], m)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the driver's grammar", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better=%q", m.Name, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v", f.Paths)
	}
}

// TestSmoke runs both passes of all four workloads at N=2000 with one-
// second windows: the real daemon, the real two-process pool, every check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run builds and starts the daemon")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.Name + "/end-to-end"
			defs := endToEnd
			if traced {
				name, defs = w.Name+"/per-layer", perLayer
			}
			t.Run(name, func(t *testing.T) {
				e, err := newEnv(3, 1, true)
				if err != nil {
					t.Fatal(err)
				}
				defer e.cleanup()
				r, err := e.runPass(&w, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := r.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: %+v (present=%v)", d.Name, v, ok)
					}
					if !traced && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
				if traced {
					var sum float64
					for _, o := range opNames {
						sum += r.Metrics["core.busy_s_"+o.name].Value
					}
					total := r.Metrics["core.busy_total_s"].Value
					if total <= 0 || math.Abs(sum-total) > 1e-9*total {
						t.Errorf("busy classes sum to %v, total says %v", sum, total)
					}
					if u := r.Metrics["core.utilization_mean"].Value; u <= 0 || u > 1.0001 {
						t.Errorf("utilization_mean = %v", u)
					}
					if _, err := os.Stat(filepath.Join(e.out, "trace-"+w.Name+".jsonl")); err != nil {
						t.Errorf("no span trace written: %v", err)
					}
				}
			})
		}
	}
}
