package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// buildDaemon compiles cmd/dashmm-serve from the checkout into bench/out/
// before any timing starts; the Go build cache makes repeats cheap.
func (e *env) buildDaemon() (string, error) {
	bin := filepath.Join(e.out, "bin", "dashmm-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dashmm-serve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building dashmm-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one dashmm-serve child. Its working directory is a fresh
// directory under bench/out/ holding its plan store, its log and — through
// a relative TMPDIR — the worker pool's unix sockets, so nothing is
// written outside the checkout and socket paths stay short however deep
// the checkout lives.
type daemon struct {
	cmd    *exec.Cmd
	dir    string
	url    string
	exited chan struct{}
	client *http.Client
}

// freeAddr probes a free localhost port. The close-to-bind window is the
// same compromise the program's own tcp pool makes.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newRunDir creates a fresh daemon directory, registered for removal.
func (e *env) newRunDir() (string, error) {
	dir, err := os.MkdirTemp(e.out, "run-")
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.runDirs = append(e.runDirs, dir)
	e.mu.Unlock()
	return dir, nil
}

// startDaemon launches the daemon in dir (its store lives in dir/store)
// and waits until /healthz answers.
func (e *env) startDaemon(bin, dir string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", addr, "-store", "store"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPDIR=tmp")
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd: cmd, dir: dir, url: "http://" + addr, exited: make(chan struct{}),
		client: &http.Client{Timeout: 90 * time.Second},
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon is not news
		close(d.exited)
	}()
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("daemon exited during start-up:\n%s", d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon not healthy after 30s:\n%s", d.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(filepath.Join(d.dir, "daemon.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop shuts the daemon down the polite way (SIGTERM: it drains, closes
// the pool and reaps its worker rank) and falls back to kill.
func (e *env) stop(d *daemon) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
	}
	d.kill()
	e.mu.Lock()
	for i, x := range e.daemons {
		if x == d {
			e.daemons = append(e.daemons[:i], e.daemons[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
}

// kill SIGKILLs the daemon and any worker rank it reported, and waits
// until the daemon has been reaped. A worker whose coordinator vanished
// exits on its own; the explicit kill only shortens that.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	for _, pid := range d.workerPIDs() {
		_ = syscall.Kill(pid, syscall.SIGKILL)
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// metrics fetches /metrics.
func (d *daemon) metrics() (*serve.MetricsSnapshot, error) { return d.fetchMetrics(d.client) }

func (d *daemon) fetchMetrics(c *http.Client) (*serve.MetricsSnapshot, error) {
	resp, err := c.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serve.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &m, nil
}

// liveHeapMB asks the daemon's pprof endpoint for its heap statistics
// after a forced collection (gc=1) and returns the live heap in MB. A
// worker rank has no such endpoint; on dist2 this is rank 0 alone.
func (d *daemon) liveHeapMB() (float64, error) {
	resp, err := d.client.Get(d.url + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, fmt.Errorf("pprof heap: %w", err)
			}
			return v / 1e6, nil
		}
	}
	return 0, fmt.Errorf("pprof heap: no HeapAlloc line")
}

// workerPIDs lists the pool's worker-rank processes (none without a pool,
// or when the daemon no longer answers — it is asked with a short timeout,
// because kill paths come through here).
func (d *daemon) workerPIDs() []int {
	m, err := d.fetchMetrics(&http.Client{Timeout: 2 * time.Second})
	if err != nil || m.Dist == nil {
		return nil
	}
	var pids []int
	for _, r := range m.Dist.Ranks {
		if r.PID > 0 {
			pids = append(pids, r.PID)
		}
	}
	return pids
}

// pids is the daemon's process tree: itself plus its worker ranks.
func (d *daemon) pids() []int {
	return append([]int{d.cmd.Process.Pid}, d.workerPIDs()...)
}

// reply is one /evaluate exchange as the client saw it.
type reply struct {
	status  int
	resp    *serve.Response
	bytes   int
	sent    time.Time
	latency float64 // seconds, request written to response decoded
	err     error
}

// evaluate posts one request and decodes the reply; decoding is inside the
// latency because a client cannot use potentials it has not parsed.
func (d *daemon) evaluate(req *serve.Request) reply {
	body, err := json.Marshal(req)
	if err != nil {
		return reply{err: err}
	}
	t0 := time.Now()
	hr, err := d.client.Post(d.url+"/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		return reply{status: hr.StatusCode, err: err}
	}
	r := reply{status: hr.StatusCode, bytes: len(raw), sent: t0}
	if hr.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("HTTP %d: %s", hr.StatusCode, strings.TrimSpace(string(raw)))
		return r
	}
	r.resp = new(serve.Response)
	if err := json.Unmarshal(raw, r.resp); err != nil {
		r.err = fmt.Errorf("decoding response: %w", err)
		return r
	}
	r.latency = time.Since(t0).Seconds()
	return r
}

// clockTick is the kernel's USER_HZ; it has been 100 on every Linux
// architecture Go supports.
const clockTick = 100

// procCPU is a process's user+system CPU seconds from /proc/<pid>/stat
// (0 if the process is gone).
func procCPU(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields resume after the last ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTick
}

// procMem reads one memory line (VmRSS: resident now, VmHWM: its peak) of
// /proc/<pid>/status in MB; 0 if the process is gone.
func procMem(pid int, key string) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

func treeCPU(pids []int) float64 {
	var s float64
	for _, p := range pids {
		s += procCPU(p)
	}
	return s
}

func treeMem(pids []int, key string) float64 {
	var s float64
	for _, p := range pids {
		s += procMem(p, key)
	}
	return s
}
