package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// setRun is one workload pass of a result set.
type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// resultSet is what the all-workloads mode writes to bench/out/<name>.json
// and what compare reads: `runs` repetitions of every workload, both
// passes.
type resultSet struct {
	Seconds float64  `json:"seconds"`
	Runs    []setRun `json:"runs"`
}

// runAll runs every workload, untraced then traced, each pass in a fresh
// process re-executed from this binary: no operator-table warmth, GC state
// or resident memory leaks from one pass into the next. Repetition r uses
// seed+r.
func runAll(seed int64, seconds float64, smoke bool, runs int, outName string) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// A signal reaches the running pass too (same process group); it
	// cleans up its own children, and this loop stops after it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	set := resultSet{Seconds: seconds}
	status := 0
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				select {
				case <-sig:
					return 130
				default:
				}
				args := []string{"--workload", w.Name, "--seed", fmt.Sprint(seed + int64(r)),
					"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
				if smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Dir = root
				cmd.Stderr = os.Stderr
				var out bytes.Buffer
				cmd.Stdout = io.MultiWriter(os.Stdout, &out)
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.Name, trace, err)
					status = 1
					continue
				}
				res, err := lastResult(out.Bytes())
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.Name, trace, err)
					status = 1
					continue
				}
				if !res.Correct {
					status = 1
				}
				set.Runs = append(set.Runs, setRun{Workload: w.Name, Seed: seed + int64(r), Trace: trace, Result: *res})
			}
		}
	}
	path := filepath.Join(root, "bench", "out", outName+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	data, _ := json.MarshalIndent(set, "", " ")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("# result set written to %s\n", path)
	return status
}

// lastResult parses the result object on the last line of a pass's output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &r, nil
}
