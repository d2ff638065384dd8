// Command bench is the repository's benchmark: four workloads, seven
// end-to-end metrics measured with tracing off, and a per-layer ledger
// measured in a separate traced pass from outside the program (README.md).
//
//	go run -C bench . --workload cube16k_laplace_adv --seed 1 --seconds 10 --trace 0
//	go run -C bench .                      # every workload, both passes
//	go run -C bench . -runs 3 -out base    # a result set for compare
//	go run -C bench . compare base next
//	go run -C bench . -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// runSeconds is the measurement window the driver uses (BENCHMARK.json's
// run_seconds) and the default of -seconds.
const runSeconds = 10

// passTimeout is the hard limit on one workload pass; the driver allows
// 180 s, so the pass gives up (children killed and reaped) before that.
const passTimeout = 170 * time.Second

// env is what one workload pass runs in.
type env struct {
	root    string // checkout root: the directory holding BENCHMARK.json
	out     string // root/bench/out: the only place this program writes
	seed    int64
	seconds float64
	smoke   bool
	cal     *calibrator

	mu      sync.Mutex
	daemons []*daemon // started and not yet stopped; guarded by mu
	runDirs []string  // per-daemon directories to remove; guarded by mu
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no BENCHMARK.json with a bench/ beside it above the working directory")
		}
		dir = parent
	}
}

func newEnv(seed int64, seconds float64, smoke bool) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, out: filepath.Join(root, "bench", "out"), seed: seed, seconds: seconds, smoke: smoke}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	e.cal = newCalibrator(workloadCores)
	return e, nil
}

// cleanup stops every daemon still running and removes the run
// directories. It is safe to call more than once and from any exit path.
func (e *env) cleanup() {
	e.mu.Lock()
	ds := e.daemons
	dirs := e.runDirs
	e.daemons, e.runDirs = nil, nil
	e.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
}

// runPass runs one pass of one workload and returns its result.
func (e *env) runPass(w *workload, traced bool) (*result, error) {
	if e.smoke {
		sw := w.smoke()
		w = &sw
	}
	if traced {
		return e.tracedPass(w)
	}
	switch w.Kind {
	case kindLibrary:
		return e.libraryPass(w)
	default:
		return e.daemonPass(w)
	}
}

// printResult writes every metric by name with its unit, then the result
// object as the last line.
func printResult(name string, traced bool, r *result) {
	pass := "end-to-end (untraced)"
	if traced {
		pass = "per-layer (traced)"
	}
	fmt.Printf("# %s: %s pass, attempted=%d failed=%d correct=%v\n", name, pass, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "run one pass of this workload (default: every workload, both passes)")
		seed    = flag.Int64("seed", 1, "drives every ensemble seed, charge seed and request schedule")
		seconds = flag.Float64("seconds", runSeconds, "measurement window per pass")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced")
		list    = flag.Bool("list", false, "print workloads and metrics in BENCHMARK.json form and exit")
		smoke   = flag.Bool("smoke", false, "shrink every workload to N=2000 (test use)")
		runs    = flag.Int("runs", 1, "all-workloads mode: repetitions, each with the next seed")
		outName = flag.String("out", "last", "all-workloads mode: result-set name under bench/out/")
	)
	flag.Parse()
	if *list {
		printList()
		return
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *smoke, *runs, *outName))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	e, err := newEnv(*seed, *seconds, *smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Every exit path — signal, timeout, failure, success — goes through
	// cleanup, so no daemon or worker rank outlives the pass.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	timer := time.AfterFunc(passTimeout, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded %v, giving up\n", w.Name, passTimeout)
		e.cleanup()
		os.Exit(3)
	})
	r, err := e.runPass(w, *trace != 0)
	timer.Stop()
	e.cleanup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	// A pass with failed operations still exits 0: the failures are in the
	// result (`correct`, `failed`), where the driver and compare read them.
	printResult(w.Name, *trace != 0, r)
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// printList prints the registry in BENCHMARK.json's own form, so the file
// can be regenerated from (and is tested against) the binary.
func printList() {
	f := benchmarkFile{
		Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"},
		RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDef{w.Name, w.Why})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	_ = enc.Encode(f)
}
