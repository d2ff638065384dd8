package serve

import (
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/amt"
)

// Supervision: a worker rank comes back one way. The state machine per rank
// is
//
//	starting → up → (exit) → respawning → up       (re-admitted)
//	                                    ↘ dead     (budget exhausted)
//
// The one trigger is the incarnation's process exit. Each rank has one loop
// for the pool's life (superviseRank): it waits for the exit, strikes, backs
// off and forks the next incarnation with the same spawn as the first
// start. The new process joins like the first one did; the cluster admits
// it once the rank holds a death verdict and no job is in flight, bumps the
// wire generation and broadcasts the new membership (cluster.go). The event
// reader (supervise) marks a re-admitted rank up, and on a verdict against
// the admitted incarnation (a crash, or a live process the cluster has
// fenced) kills its process, whose exit then starts the respawn; an
// incarnation still joining is left alone, since the verdict is its
// predecessor's. Strikes count in a sliding window,
// and a rank striking out is abandoned: it stays dead, jobs place over the
// survivors like after any verdict, and requests degrade only when no
// worker is live.

// rankState is the supervisor's view of one worker rank.
type rankState struct {
	rank int

	mu       sync.Mutex
	state    string      // guarded by mu: starting | up | respawning | dead
	restarts int64       // guarded by mu: successful re-admissions
	strikes  []time.Time // guarded by mu: sliding-window exit times
	lastDied time.Time   // guarded by mu: latest death verdict (zero: never)

	proc   *os.Process   // guarded by mu: current incarnation
	exited chan struct{} // guarded by mu: closed when proc is reaped
}

func (rs *rankState) setState(s string) {
	rs.mu.Lock()
	rs.state = s
	rs.mu.Unlock()
}

// strike records one failure and reports whether the budget is exhausted.
func (rs *rankState) strike(budget int, window time.Duration) bool {
	now := time.Now()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	keep := rs.strikes[:0]
	for _, t := range rs.strikes {
		if now.Sub(t) <= window {
			keep = append(keep, t)
		}
	}
	rs.strikes = append(keep, now)
	return len(rs.strikes) > budget
}

// kill SIGKILLs the current incarnation (idempotent, tolerant of exited
// processes).
func (rs *rankState) kill() {
	rs.mu.Lock()
	p := rs.proc
	rs.mu.Unlock()
	if p != nil {
		p.Kill()
	}
}

// killJoining SIGKILLs the current incarnation unless it is the admitted
// one: a process still joining hears no verdict and no EXIT.
func (rs *rankState) killJoining() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.state != "up" && rs.proc != nil {
		rs.proc.Kill()
	}
}

// reap waits (until deadline) for the current incarnation to exit, then
// SIGKILLs and waits again. Used by Pool.Close so no worker outlives the
// daemon.
func (rs *rankState) reap(deadline time.Time) {
	rs.mu.Lock()
	exited := rs.exited
	rs.mu.Unlock()
	if exited == nil {
		return
	}
	select {
	case <-exited:
		return
	case <-time.After(time.Until(deadline)):
	}
	rs.kill()
	<-exited
}

func (rs *rankState) health(now time.Time, window time.Duration) RankHealth {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	live := 0
	for _, t := range rs.strikes {
		if now.Sub(t) <= window {
			live++
		}
	}
	age := int64(-1)
	if !rs.lastDied.IsZero() {
		age = now.Sub(rs.lastDied).Milliseconds()
	}
	pid := 0
	if rs.proc != nil {
		pid = rs.proc.Pid
	}
	return RankHealth{
		Rank:             rs.rank,
		State:            rs.state,
		PID:              pid,
		Restarts:         rs.restarts,
		Strikes:          live,
		LastVerdictAgeMS: age,
	}
}

// supervise is the pool's event reader: verdicts and re-admissions off the
// cluster's event log, in the order rank 0 made them.
//
// It exits when Pool.Close closes the subscription; p.wg.Wait joins it.
func (p *Pool) supervise() {
	defer p.wg.Done()
	for {
		ev, ok := p.events.Next()
		if !ok {
			return
		}
		if ev.Rank < 1 || ev.Rank >= len(p.ranks) {
			continue
		}
		rs := p.ranks[ev.Rank]
		rs.mu.Lock()
		switch ev.Kind {
		case amt.EventDead:
			rs.lastDied = time.Now()
			if rs.state == "up" {
				rs.proc.Kill()
			}
		case amt.EventRejoin:
			rs.state = "up"
			rs.restarts++
		}
		rs.mu.Unlock()
	}
}

// superviseRank brings one rank back for the pool's life: wait for the
// incarnation's exit, strike, back off with full jitter, fork the next one.
// The backoff restarts at BackoffBase after an incarnation that was up.
//
// It exits on p.quit or when the rank is abandoned; Pool.Close closes quit
// and p.wg.Wait joins it.
func (p *Pool) superviseRank(rs *rankState) {
	defer p.wg.Done()
	rng := rand.New(rand.NewSource(int64(rs.rank)*2_654_435_761 + time.Now().UnixNano()))
	backoff := p.cfg.BackoffBase
	for p.awaitExit(rs) {
		rs.mu.Lock()
		if rs.state == "up" {
			backoff = p.cfg.BackoffBase
		}
		rs.state = "respawning"
		rs.mu.Unlock()
		if rs.strike(p.cfg.RestartBudget, restartWindow) {
			rs.setState("dead")
			return
		}
		// Full jitter: sleep U[0, backoff] so N ranks respawning at once
		// do not hammer the coordinator in lockstep.
		select {
		case <-p.quit:
			return
		case <-time.After(time.Duration(rng.Int63n(int64(backoff) + 1))):
		}
		backoff = min(2*backoff, p.cfg.BackoffMax)
		// A failed fork leaves the exited incarnation in place: the next
		// pass strikes it.
		_ = p.spawn(rs)
	}
}

// awaitExit waits for the rank's current incarnation to exit (true) or the
// pool to close (false). An incarnation not admitted within its JoinTimeout
// plus slack is killed, and so is one still joining when the pool closes.
func (p *Pool) awaitExit(rs *rankState) bool {
	rs.mu.Lock()
	exited := rs.exited
	rs.mu.Unlock()
	admission := time.NewTimer(p.cfg.JoinTimeout + 5*time.Second)
	defer admission.Stop()
	for {
		select {
		case <-p.quit:
			rs.killJoining()
			return false
		case <-exited:
			return true
		case <-admission.C:
			rs.killJoining()
		}
	}
}
