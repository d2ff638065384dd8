package serve

import (
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/amt"
)

// Supervision: rank 0 reads the cluster's event log and brings dead ranks
// back. The state machine per rank is
//
//	starting → up → (verdict) → respawning → up        (re-admitted)
//	                          ↘ dead                   (budget exhausted)
//
// A respawn attempt forks a fresh worker process with the REJOIN flag; the
// cluster admits it between jobs, bumps the wire generation and broadcasts
// the new membership (cluster.go). Failures are "strikes" in a sliding
// window — death verdicts and failed respawn attempts both count — and a
// rank striking out is abandoned: its state pins to "dead" and the circuit
// breaker is forced open, flipping the server into degraded mode until an
// operator intervenes or a later re-admission succeeds.

// rankState is the supervisor's view of one worker rank.
type rankState struct {
	rank int

	mu       sync.Mutex
	state    string      // guarded by mu: starting | up | respawning | dead
	restarts int64       // guarded by mu: successful re-admissions
	strikes  []time.Time // guarded by mu: sliding-window failure times
	lastDied time.Time   // guarded by mu: latest death verdict (zero: never)

	proc   *os.Process   // guarded by mu: current incarnation
	exited chan struct{} // guarded by mu: closed when proc is reaped

	admitMu  sync.Mutex
	admitted chan struct{} // guarded by admitMu: signaled by the rank's EventRejoin
}

func (rs *rankState) setState(s string) {
	rs.mu.Lock()
	rs.state = s
	rs.mu.Unlock()
}

func (rs *rankState) setProc(p *os.Process, exited chan struct{}) {
	rs.mu.Lock()
	rs.proc = p
	rs.exited = exited
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

// armAdmission installs a fresh admission channel for one respawn attempt.
func (rs *rankState) armAdmission() chan struct{} {
	ch := make(chan struct{}, 1)
	rs.admitMu.Lock()
	rs.admitted = ch
	rs.admitMu.Unlock()
	return ch
}

// noteAdmitted signals the armed respawn attempt, if any.
func (rs *rankState) noteAdmitted() {
	rs.admitMu.Lock()
	ch := rs.admitted
	rs.admitted = nil
	rs.admitMu.Unlock()
	if ch != nil {
		ch <- struct{}{}
	}
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

// supervise is the pool's supervisor loop: one goroutine reading verdicts
// and re-admissions off the cluster's event log, in the order rank 0 made
// them, dispatching respawns and signaling the respawn that was admitted.
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
		switch ev.Kind {
		case amt.EventDead:
			p.onWorkerDeath(p.ranks[ev.Rank])
		case amt.EventRejoin:
			p.ranks[ev.Rank].noteAdmitted()
		}
	}
}

// onWorkerDeath handles one death verdict: strike the rank and either
// launch its respawn loop or abandon it.
//
// The respawn loop exits on p.quit or at admission or abandonment;
// Pool.Close closes quit and p.wg.Wait joins it.
func (p *Pool) onWorkerDeath(rs *rankState) {
	rs.mu.Lock()
	if rs.state == "respawning" || rs.state == "dead" {
		// Already being handled (a re-verdict against a failed respawn's
		// half-admitted incarnation lands here).
		rs.mu.Unlock()
		return
	}
	rs.state = "respawning"
	rs.lastDied = time.Now()
	rs.mu.Unlock()
	if rs.strike(p.cfg.RestartBudget, restartWindow) {
		p.abandon(rs)
		return
	}
	p.wg.Add(1)
	go p.respawnLoop(rs)
}

// respawnLoop brings one dead rank back: full-jitter exponential backoff
// between attempts, a strike per failure, abandonment when the budget is
// exhausted.
//
// It exits on p.quit or when the rank is admitted or abandoned; Pool.Close
// closes quit and p.wg.Wait joins it.
func (p *Pool) respawnLoop(rs *rankState) {
	defer p.wg.Done()
	rng := rand.New(rand.NewSource(int64(rs.rank)*2_654_435_761 + time.Now().UnixNano()))
	backoff := p.cfg.BackoffBase
	for {
		// Full jitter: sleep U[0, backoff] so N ranks respawning at once
		// do not hammer the coordinator in lockstep.
		sleep := time.Duration(rng.Int63n(int64(backoff) + 1))
		select {
		case <-p.quit:
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > p.cfg.BackoffMax {
			backoff = p.cfg.BackoffMax
		}

		rs.kill() // make sure the previous incarnation is really gone
		admitted := rs.armAdmission()
		if err := p.spawn(rs, true); err != nil {
			if rs.strike(p.cfg.RestartBudget, restartWindow) {
				p.abandon(rs)
				return
			}
			continue
		}
		rs.mu.Lock()
		exited := rs.exited
		rs.mu.Unlock()

		// The worker retries its REJOIN handshake internally (waiting out
		// "no verdict yet" and "job in flight" rejections) for its whole
		// JoinTimeout; give it that long plus slack before striking.
		wait := time.NewTimer(p.cfg.JoinTimeout + 5*time.Second)
		select {
		case <-p.quit:
			// Close may have reaped the rank before this incarnation was
			// set: it must not outlive the pool.
			wait.Stop()
			rs.kill()
			return
		case <-admitted:
			wait.Stop()
			rs.mu.Lock()
			rs.state = "up"
			rs.restarts++
			rs.mu.Unlock()
			// A successful re-admission after an abandon elsewhere proves
			// the fabric heals; only the forced-open state is cleared, an
			// organically-open breaker still waits out its cooldown.
			p.breaker.reset()
			return
		case <-exited:
			// The incarnation died before being admitted (crash-looping
			// worker): strike immediately instead of waiting out the
			// admission timer.
			wait.Stop()
		case <-wait.C:
			// Spawned but never admitted within the window.
		}
		if rs.strike(p.cfg.RestartBudget, restartWindow) {
			p.abandon(rs)
			return
		}
	}
}

// abandon gives up on a rank: budget exhausted, state pinned dead, breaker
// forced open.
func (p *Pool) abandon(rs *rankState) {
	rs.kill()
	rs.setState("dead")
	p.breaker.forceOpen()
}
