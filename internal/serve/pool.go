package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amt"
	"repro/internal/core"
)

// Pool is a supervised standing worker-rank pool: the daemon (rank 0 of an
// amt.Cluster) plus N self-exec worker processes, held across requests so a
// distributed evaluation pays no bootstrap cost. A worker process's exit
// is the one respawn trigger (full-jitter exponential backoff, a
// sliding-window restart budget), and the cluster re-admits the new
// incarnation with a fresh wire generation; a rank whose budget is exhausted
// stays dead, and jobs place over the survivors.
type Pool struct {
	cfg     PoolConfig
	stamp   string // handshake stamp, fixed at construction
	sockDir string // the temp dir NewPool made for rank 0's socket ("" for a given Addr or tcp); Close removes it
	cl      *amt.Cluster
	events  *amt.Subscription // the supervisor's cursor: verdicts and re-admissions, from the cluster's first event
	breaker *breaker

	ranks []*rankState // index 1..World-1; [0] unused

	requests atomic.Int64
	okCount  atomic.Int64
	failed   atomic.Int64
	retries  atomic.Int64

	cmdMu sync.Mutex
	cmd   []string // guarded by cmdMu: worker argv (test hook)

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// PoolConfig sizes and tunes the pool.
type PoolConfig struct {
	// Workers is the number of worker ranks (world = Workers+1; minimum 1).
	Workers int
	// Network is "unix" (default) or "tcp".
	Network string
	// Addr overrides rank 0's control/data address (default: a socket in a
	// fresh temp dir for unix, a probed localhost port for tcp).
	Addr string
	// RankThreads is each rank's scheduler thread count (default
	// GOMAXPROCS / (Workers+1), at least 1).
	RankThreads int
	// Heartbeat tunes the death detector (zero: amt's defaults).
	Heartbeat amt.FailureDetectorConfig
	// JoinTimeout bounds the bootstrap barrier and each incarnation's join;
	// one not admitted within it plus 5s is killed (default 30s).
	JoinTimeout time.Duration
	// RestartBudget is the strike limit per rank: more than this many
	// strikes (process exits) inside restartWindow abandons the rank
	// (default 5).
	RestartBudget int
	// BackoffBase/BackoffMax bound the respawn backoff (defaults 50ms/2s).
	BackoffBase, BackoffMax time.Duration
	// BreakerCooldown is how long breakerThreshold consecutive distributed
	// failures open the breaker for (default 5s).
	BreakerCooldown time.Duration
}

func (c PoolConfig) withDefaults() (PoolConfig, error) {
	if c.Workers < 1 {
		return c, fmt.Errorf("serve: pool needs at least 1 worker, got %d", c.Workers)
	}
	if c.Network == "" {
		c.Network = "unix"
	}
	if c.Network != "unix" && c.Network != "tcp" {
		return c, fmt.Errorf("serve: unsupported pool network %q", c.Network)
	}
	if c.RankThreads <= 0 {
		c.RankThreads = max(1, runtime.GOMAXPROCS(0)/(c.Workers+1))
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 30 * time.Second
	}
	if c.RestartBudget <= 0 {
		c.RestartBudget = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	return c, nil
}

// Strikes count within restartWindow, and breakerThreshold consecutive
// distributed failures open the breaker.
const restartWindow, breakerThreshold = time.Minute, 3

// ErrDegraded marks a distributed attempt that was refused or abandoned;
// the caller falls back to the in-process path.
var ErrDegraded = errors.New("serve: distributed fabric degraded")

// errNotStarted marks a request whose context ended before its job could
// start (on arrival, or queued behind another job): the fabric was never
// tried, so it is no fabric failure.
var errNotStarted = errors.New("serve: request ended before its distributed job started")

// NewPool boots the cluster: bind rank 0, fork the workers (this executable,
// which MaybeWorker diverts), run the join barrier, start the supervisor. On
// any bootstrap error the forked workers are killed and reaped, and the
// socket directory NewPool made is removed, before returning.
//
// The event reader exits when Pool.Close closes its subscription, each
// rank's loop on p.quit; p.wg.Wait joins them.
func NewPool(cfg PoolConfig) (*Pool, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("serve: cannot locate own executable for worker re-exec: %w", err)
	}
	sockDir := ""
	if cfg.Addr == "" {
		cfg.Addr, sockDir, err = poolAddr(cfg.Network)
		if err != nil {
			return nil, err
		}
	}
	stamp := fmt.Sprintf("dashmm-serve-pool-v1/w%d/%s", cfg.Workers, cfg.Network)
	world := cfg.Workers + 1
	cl, err := amt.NewCluster(amt.ClusterConfig{
		Rank:        0,
		World:       world,
		Network:     cfg.Network,
		Addr:        cfg.Addr,
		Stamp:       stamp,
		Heartbeat:   cfg.Heartbeat,
		JoinTimeout: cfg.JoinTimeout,
	})
	if err != nil {
		os.RemoveAll(sockDir)
		return nil, err
	}
	p := &Pool{
		cfg:     cfg,
		stamp:   stamp,
		sockDir: sockDir,
		cl:      cl,
		events:  cl.Subscribe(),
		breaker: newBreaker(cfg.BreakerCooldown),
		ranks:   make([]*rankState, world),
		cmd:     []string{self},
		quit:    make(chan struct{}),
	}
	for r := 1; r < world; r++ {
		p.ranks[r] = &rankState{rank: r, state: "starting"}
	}
	for r := 1; r < world; r++ {
		if err = p.spawn(p.ranks[r]); err != nil {
			err = fmt.Errorf("serve: spawn worker rank %d: %w", r, err)
			break
		}
	}
	if err == nil {
		if err = cl.Start(); err != nil {
			err = fmt.Errorf("serve: pool bootstrap: %w", err)
		}
	}
	if err != nil {
		for _, rs := range p.ranks[1:] {
			rs.kill()
		}
		cl.Close()
		p.wg.Wait() // the reapers of the killed workers
		os.RemoveAll(sockDir)
		return nil, err
	}
	p.wg.Add(world)
	for r := 1; r < world; r++ {
		p.ranks[r].setState("up")
		go p.superviseRank(p.ranks[r])
	}
	go p.supervise()
	return p, nil
}

// poolAddr picks rank 0's default address, and for unix the fresh temp dir
// that holds it and the workers' sockets.
func poolAddr(network string) (addr, dir string, err error) {
	if network == "unix" {
		dir, err := os.MkdirTemp("", "dashmm-serve-pool")
		if err != nil {
			return "", "", err
		}
		return filepath.Join(dir, "coord.sock"), dir, nil
	}
	// TCP: probe a free localhost port. The tiny close-to-bind window is
	// the same compromise cmd/dashmm-bench makes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	addr = ln.Addr().String()
	ln.Close()
	return addr, "", nil
}

// Evaluate runs one distributed evaluation over the pool: broadcast the
// job, run rank 0's side of DistRun against the cached plan, re-run it on
// the survivors while a rank is lost under it, and feed the breaker.
// Returns ErrDegraded (possibly wrapped) when the caller should fall back
// to in-process evaluation. A request whose context ends before its job
// starts gets an error that is not ErrDegraded, and leaves the breaker and
// the failure count where they were.
func (p *Pool) Evaluate(ctx context.Context, req *Request, entry *planEntry, charges []float64) ([]float64, core.ExecReport, error) {
	select {
	case <-p.quit:
		return nil, core.ExecReport{}, fmt.Errorf("%w: pool closed", ErrDegraded)
	default:
	}
	if !p.breaker.allow() {
		return nil, core.ExecReport{}, fmt.Errorf("%w: breaker %s", ErrDegraded, p.breaker.current())
	}
	p.requests.Add(1)
	if p.cl.LiveWorkers() == 0 {
		p.breaker.failure()
		return nil, core.ExecReport{}, fmt.Errorf("%w: no live workers", ErrDegraded)
	}
	pots, rep, err := p.runJob(ctx, req, entry, charges)
	if errors.Is(err, errNotStarted) {
		p.breaker.skip()
		return nil, core.ExecReport{}, err
	}
	// A rank lost mid-run fails the job on every rank. While time remains
	// and a worker is live, the next job, whose dead-rank base places
	// nothing on the corpse, re-runs it: at most one re-run per worker, the
	// rule of dashmm-bench -net. Any other failure is not re-run.
	var lost *core.RankLostError
	for re := 0; re < p.cfg.Workers && errors.As(err, &lost) && ctx.Err() == nil && p.cl.LiveWorkers() > 0; re++ {
		p.retries.Add(1)
		pots, rep, err = p.runJob(ctx, req, entry, charges)
	}
	if err != nil {
		p.failed.Add(1)
		p.breaker.failure()
		return nil, core.ExecReport{}, fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	p.okCount.Add(1)
	p.breaker.success()
	return pots, rep, nil
}

// runJob starts one job — the cluster makes it wait for the one before it:
// a standing cluster runs one collective job at a time — and runs rank 0's
// side of it. A job that ctx ends first never starts (errNotStarted).
func (p *Pool) runJob(ctx context.Context, req *Request, entry *planEntry, charges []float64) ([]float64, core.ExecReport, error) {
	budget := 2 * time.Minute // the workers' backstop when the caller set no deadline
	if d, ok := ctx.Deadline(); ok {
		budget = time.Until(d)
		if budget <= 0 {
			return nil, core.ExecReport{}, fmt.Errorf("%w: %w", errNotStarted, context.DeadlineExceeded)
		}
	}
	spec := specOf(req, entry.plan)
	spec.ChargeSeed = req.ChargeSeed
	spec.DeadlineMS = int(budget.Milliseconds())
	payload, _ := json.Marshal(spec) // a normalized request's scalars: cannot fail
	job, err := p.cl.StartJob(ctx, payload)
	if err != nil {
		return nil, core.ExecReport{}, fmt.Errorf("%w: %w", errNotStarted, err)
	}
	defer job.End()
	return core.DistRun(ctx, entry.plan, p.cl, charges, core.ExecOptions{
		Workers: p.cfg.RankThreads,
		Job:     job,
	})
}

// Close tears the pool down: broadcast EXIT, reap the workers (SIGKILL
// stragglers), close the cluster, join the event reader, the rank loops and
// every worker process's reaper, and remove the socket directory NewPool
// made. No goroutine of the pool outlives it.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.quit)
		p.events.Close()
		p.cl.BroadcastExit()
		deadline := time.Now().Add(3 * time.Second)
		for r := 1; r < len(p.ranks); r++ {
			p.ranks[r].reap(deadline)
		}
		p.cl.Close()
		p.wg.Wait()
		os.RemoveAll(p.sockDir)
	})
}

// SetWorkerCommand swaps the argv used for future respawns (tests: point
// respawns at a fast-fail stub to exercise the restart budget).
func (p *Pool) SetWorkerCommand(argv []string) {
	p.cmdMu.Lock()
	p.cmd = append([]string(nil), argv...)
	p.cmdMu.Unlock()
}

func (p *Pool) workerCommand() []string {
	p.cmdMu.Lock()
	defer p.cmdMu.Unlock()
	return p.cmd
}

// errPoolClosed refuses a fork once Close has begun.
var errPoolClosed = errors.New("serve: pool closed")

// spawn forks the rank's next worker process — the first incarnation and
// every respawn alike — and starts its reaper. It refuses once the pool is
// closing, so no incarnation escapes Close's reap.
func (p *Pool) spawn(rs *rankState) error {
	argv := p.workerCommand()
	env := WorkerEnv{
		Rank:        rs.rank,
		World:       p.cfg.Workers + 1,
		Network:     p.cfg.Network,
		Addr:        p.cfg.Addr,
		Stamp:       p.stamp,
		Threads:     p.cfg.RankThreads,
		Heartbeat:   p.cfg.Heartbeat,
		JoinTimeout: p.cfg.JoinTimeout,
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), env.environ())
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	rs.mu.Lock()
	defer rs.mu.Unlock()
	select {
	case <-p.quit:
		return errPoolClosed
	default:
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	exited := make(chan struct{})
	p.wg.Add(1)
	go func() { // reap: no zombies, and the rank's loop waits on the exit
		defer p.wg.Done()
		cmd.Wait()
		close(exited)
	}()
	rs.proc, rs.exited = cmd.Process, exited
	return nil
}

// PoolSnapshot is the /metrics rendering of the pool.
type PoolSnapshot struct {
	World       int          `json:"world"`
	LiveWorkers int          `json:"live_workers"`
	Generation  uint32       `json:"generation"`
	Breaker     string       `json:"breaker"`
	Requests    int64        `json:"requests"`
	OK          int64        `json:"ok"`
	Failed      int64        `json:"failed"`
	Retries     int64        `json:"retries"`
	Ranks       []RankHealth `json:"ranks"`
}

// RankHealth is one worker rank's supervision state.
type RankHealth struct {
	Rank     int    `json:"rank"`
	State    string `json:"state"` // starting | up | respawning | dead
	PID      int    `json:"pid"`   // current incarnation's process id (0: none)
	Restarts int64  `json:"restarts"`
	Strikes  int    `json:"strikes"`
	// LastVerdictAgeMS is the time since this rank's latest death verdict
	// (-1: never died).
	LastVerdictAgeMS int64 `json:"last_verdict_age_ms"`
}

// Snapshot renders the pool for /metrics.
func (p *Pool) Snapshot() *PoolSnapshot {
	s := &PoolSnapshot{
		World:       p.cfg.Workers + 1,
		LiveWorkers: p.cl.LiveWorkers(),
		Generation:  p.cl.Generation(),
		Breaker:     p.breaker.current(),
		Requests:    p.requests.Load(),
		OK:          p.okCount.Load(),
		Failed:      p.failed.Load(),
		Retries:     p.retries.Load(),
	}
	now := time.Now()
	for r := 1; r < len(p.ranks); r++ {
		s.Ranks = append(s.Ranks, p.ranks[r].health(now, restartWindow))
	}
	return s
}
