package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// verdict of one workload x metric row.
const (
	vImproved   = "improved"
	vUnchanged  = "unchanged"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
)

// judge compares the values of one end-to-end metric on one workload in
// two result sets. A change for the worse beyond the metric's bound is a
// regression. Where either set's own run-to-run spread exceeds the bound
// the metric is unresolved, not unchanged — unless every run of one set
// reads better than every run of the other. An improvement must exceed
// both sets' spread.
func judge(a, b []float64, higherBetter bool, bound float64) (verdict string, change, spreadA, spreadB float64) {
	ma, mb := median(a), median(b)
	spreadA, spreadB = spread(a), spread(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change // positive = worse for lower-is-better
	if higherBetter {
		worse = -change
	}
	minA, maxA := quantile(a, 0), quantile(a, 1)
	minB, maxB := quantile(b, 0), quantile(b, 1)
	allBetter := maxB < minA
	allWorse := minB > maxA
	if higherBetter {
		allBetter, allWorse = minB > maxA, maxB < minA
	}
	noisy := spreadA > bound || spreadB > bound
	switch {
	case noisy && allBetter:
		return vImproved, change, spreadA, spreadB
	case noisy && allWorse && worse > bound:
		return vRegressed, change, spreadA, spreadB
	case noisy:
		return vUnresolved, change, spreadA, spreadB
	case worse > bound:
		return vRegressed, change, spreadA, spreadB
	case -worse > spreadA && -worse > spreadB && -worse > 0:
		return vImproved, change, spreadA, spreadB
	}
	return vUnchanged, change, spreadA, spreadB
}

func loadSet(root, name string) (*resultSet, error) {
	path := name
	if !strings.ContainsAny(name, "/.") {
		path = filepath.Join(root, "bench", "out", name+".json")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric's untraced values for a workload, plus the
// attempted and failed totals.
func (s *resultSet) values(workload, metric string) (vals []float64, attempted, failed int) {
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		attempted += r.Result.Attempted
		failed += r.Result.Failed
		if v, ok := r.Result.Metrics[metric]; ok {
			vals = append(vals, v.Value)
		}
	}
	return
}

// compareMain implements `bench compare A B`: one row per workload and
// end-to-end metric, bounds from BENCHMARK.json, non-zero exit on a
// regression.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A B   (result-set names under bench/out/, or paths)")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	a, err := loadSet(root, args[0])
	if err == nil {
		var b *resultSet
		if b, err = loadSet(root, args[1]); err == nil {
			return compareSets(&bf, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareSets(bf *benchmarkFile, a, b *resultSet) int {
	status := 0
	fmt.Printf("%-26s %-18s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "change", "sprd A", "sprd B", "bound", "verdict")
	for _, w := range bf.Workloads {
		var attA, failA, attB, failB int
		for _, m := range bf.EndToEnd {
			va, aa, fa := a.values(w.Name, m.Name)
			vb, ab, fb := b.values(w.Name, m.Name)
			attA, failA, attB, failB = aa, fa, ab, fb
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-26s %-18s %12s %12s %8s %7s %7s %5.0f%%  %s\n", w.Name, m.Name, "-", "-", "-", "-", "-", 100*m.Bound, vUnresolved+" (missing)")
				continue
			}
			v, ch, sa, sb := judge(va, vb, m.Better == "higher", m.Bound)
			if v == vRegressed {
				status = 1
			}
			fmt.Printf("%-26s %-18s %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, median(va), median(vb), 100*ch, 100*sa, 100*sb, 100*m.Bound, v)
		}
		ra, rb := 0.0, 0.0
		if attA > 0 {
			ra = float64(failA) / float64(attA)
		}
		if attB > 0 {
			rb = float64(failB) / float64(attB)
		}
		verdict := vUnchanged
		if rb > ra {
			verdict = vRegressed
			status = 1
		} else if rb < ra {
			verdict = vImproved
		}
		fmt.Printf("%-26s %-18s %12s %12s %+8.4f %31s %s\n", w.Name, "failed/attempted",
			fmt.Sprintf("%d/%d", failA, attA), fmt.Sprintf("%d/%d", failB, attB), rb-ra, "", verdict)
	}
	return status
}
