package amt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// lazyDetector keeps the heartbeat monitor out of a test that issues its
// verdicts by hand: two seconds of silence before it speaks.
func lazyDetector(cfg *ClusterConfig) {
	cfg.Heartbeat = FailureDetectorConfig{Interval: 50 * time.Millisecond, MissedBeats: 40}
}

func (ev Event) String() string {
	kind := [...]string{"?", "dead", "rejoin", "job", "rundone", "coordlost", "exit"}[ev.Kind]
	job := ""
	if ev.Job != nil {
		job = fmt.Sprintf(" placed with %v dead, payload %q", ev.Job.DeadOrder, ev.Job.Payload)
	}
	return fmt.Sprintf("%s rank=%d gen=%d%s", kind, ev.Rank, ev.Gen, job)
}

// lines renders a stretch of a log for comparison and for the eye.
func lines(evs []Event) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintln(&b, ev)
	}
	return b.String()
}

// jobSeen is what a worker's membership looked like when its reader was
// handed a job.
type jobSeen struct {
	gen       uint32 // the job's
	adopted   uint32 // the worker's wire generation at that moment
	rank2Dead bool
}

// record is one cursor's reading of a rank's log: the events up to the one
// that ends this rank's part in the cluster.
type record struct {
	done chan struct{}
	evs  []Event
	jobs []jobSeen
	subs []*record // run-style cursors attached at a job this cursor was handed
	from []uint32  // their generations
}

// follow reads sub to its end — EXIT, this rank's own verdict, or the
// closing of the cluster — on a goroutine of its own. attach, when set,
// makes it open a run's cursor (the cursor alone: these stay open side by
// side to the end of the log, and a rank has one data plane) at every fourth
// job it is handed.
func follow(c *Cluster, sub *Subscription, attach bool) *record {
	rec := &record{done: make(chan struct{})}
	// It ends with the log; every caller waits on rec.done.
	go func() {
		defer close(rec.done)
		defer sub.Close()
		for {
			ev, ok := sub.Next()
			if !ok || ev.Kind == EventCoordLost {
				return
			}
			rec.evs = append(rec.evs, ev)
			switch {
			case ev.Kind == EventJob:
				rec.jobs = append(rec.jobs, jobSeen{gen: ev.Gen, adopted: c.Generation(), rank2Dead: c.dead[2].Load()})
				if attach && ev.Gen%4 == 0 {
					rec.subs = append(rec.subs, follow(c, c.subscribe(ev.Gen), false))
					rec.from = append(rec.from, ev.Gen)
				}
			case ev.Kind == EventExit, ev.Kind == EventDead && ev.Rank == c.Rank():
				return
			}
		}
	}()
	return rec
}

func (rec *record) wait(t *testing.T, who string) bool {
	t.Helper()
	select {
	case <-rec.done:
	case <-time.After(20 * time.Second):
		t.Errorf("%s: the log never came to its end", who)
		return false
	}
	ok := true
	for i, sub := range rec.subs {
		ok = sub.wait(t, fmt.Sprintf("%s, cursor attached at generation %d", who, rec.from[i])) && ok
	}
	return ok
}

// The control plane's one promise, as a property: whatever rank 0 does —
// verdicts, jobs, run-complete signals, re-admissions, from however many
// goroutines at once — happens in one order, rank 0's log is that order,
// and every worker's log is the stretch of it that the worker was a member
// for. A seeded interleaving per table row; the invariants do not depend on
// which interleaving it produces.
func TestEventOrderAndReplay(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { eventOrderProperty(t, seed) })
	}
}

func eventOrderProperty(t *testing.T, seed int64) {
	const world, rejoins, minJobs = 4, 8, 24
	dir := t.TempDir()
	cls := startTestCluster(t, dir, world, lazyDetector)
	recs := make([]*record, world)
	for r, c := range cls {
		recs[r] = follow(c, c.Subscribe(), r <= 1)
	}
	rank3 := []*record{recs[3]} // one record per incarnation of rank 3

	pause := func(rng *rand.Rand, max time.Duration) { time.Sleep(time.Duration(rng.Int63n(int64(max)))) }
	var scripted, jobs sync.WaitGroup
	stop := make(chan struct{})
	// backlog is the longest queue of a live link: the job loop below is
	// tight — a frame queued in the gap between two critical sections that
	// should be one only shows if somebody is at the lock that instant — and
	// paces itself by this, not by the clock, so that a writer goroutine the
	// box did not run for a while is waited for, not overrun.
	backlog := func() (n int) {
		cls[0].mu.Lock()
		defer cls[0].mu.Unlock()
		for r, l := range cls[0].links {
			if !cls[0].dead[r].Load() {
				n = max(n, len(l.q))
			}
		}
		return n
	}
	// The pool's shape: one job at a time, re-admission open between them.
	jobs.Add(1)
	go func() {
		defer jobs.Done()
		rng := rand.New(rand.NewSource(seed))
		for n := 0; ; n++ {
			select {
			case <-stop:
				if n >= minJobs {
					return
				}
			default:
			}
			for backlog() > ctlQueueMax/4 {
				time.Sleep(100 * time.Microsecond)
			}
			job := startJob(cls[0], nil)
			cls[0].Shutdown()
			job.End()
			pause(rng, 300*time.Microsecond) // re-admission needs the gap: it is refused while a job is in flight
		}
	}()
	// Run-complete signals from outside the job loop (Pool.runJob's, after
	// a failed run), as tight and paced the same way.
	jobs.Add(1)
	go func() {
		defer jobs.Done()
		rng := rand.New(rand.NewSource(seed + 100))
		for {
			select {
			case <-stop:
				return
			default:
			}
			for backlog() > ctlQueueMax/4 {
				time.Sleep(100 * time.Microsecond)
			}
			cls[0].Shutdown()
			pause(rng, 60*time.Microsecond)
		}
	}()
	// A rank that dies and stays dead.
	scripted.Add(1)
	go func() {
		defer scripted.Done()
		pause(rand.New(rand.NewSource(seed+200)), 5*time.Millisecond)
		cls[0].DeclareDead(2)
	}()
	// A rank that is declared dead and comes back, again and again.
	scripted.Add(1)
	go func() {
		defer scripted.Done()
		rng := rand.New(rand.NewSource(seed + 300))
		for i := 0; i < rejoins; i++ {
			pause(rng, 3*time.Millisecond)
			cls[0].DeclareDead(3)
			if !rank3[i].wait(t, "rank 3's fenced incarnation") { // it reads up to its own verdict
				return
			}
			cls[3].Close()
			cfg := testClusterConfig(dir, 3, world)
			lazyDetector(&cfg)
			nc, err := NewCluster(cfg)
			if err != nil {
				t.Errorf("rejoin %d: %v", i, err)
				return
			}
			cls[3] = nc // startTestCluster's cleanup closes whatever is in the slot
			rank3 = append(rank3, follow(nc, nc.Subscribe(), false))
		}
	}()
	scripted.Wait()
	close(stop)
	jobs.Wait()
	cls[0].BroadcastExit()
	for r := 0; r < 3; r++ {
		recs[r].wait(t, fmt.Sprintf("rank %d", r))
	}
	rank3[len(rank3)-1].wait(t, "rank 3's last incarnation")
	if t.Failed() {
		return
	}

	// Rank 0's log is the order. Fold it into the membership it describes,
	// noting where each worker's part of it begins and ends.
	order := recs[0].evs
	var dead []int
	var lastRejoinGen uint32
	membershipAt := map[uint32]jobSeen{} // per job generation: what a worker must have adopted by then
	jobAt := map[uint32]int{}
	var died2 int
	var died3, back3 []int
	for i, ev := range order {
		switch ev.Kind {
		case EventDead:
			dead = append(dead, ev.Rank)
			if ev.Rank == 2 {
				died2 = i + 1
			} else {
				died3 = append(died3, i+1)
			}
		case EventRejoin:
			dead = slices.DeleteFunc(dead, func(r int) bool { return r == ev.Rank })
			lastRejoinGen = ev.Gen
			back3 = append(back3, i+1)
		case EventJob:
			if !slices.Equal(ev.Job.DeadOrder, dead) {
				t.Errorf("event %d: job of generation %d was placed against dead ranks %v, the log says %v", i, ev.Gen, ev.Job.DeadOrder, dead)
			}
			membershipAt[ev.Gen] = jobSeen{adopted: lastRejoinGen, rank2Dead: died2 != 0}
			jobAt[ev.Gen] = i
		}
	}
	if len(died3) != rejoins || len(back3) != rejoins || died2 == 0 {
		t.Fatalf("rank 0's log holds %d verdicts and %d re-admissions of rank 3 (want %d each), rank 2's verdict at %d:\n%s",
			len(died3), len(back3), rejoins, died2, lines(order))
	}
	if got := cls[0].deadNow(); !slices.Equal(got, dead) {
		t.Errorf("rank 0's DeadOrder() = %v, its log folds to %v", got, dead)
	}
	if got := cls[1].deadNow(); !slices.Equal(got, dead) {
		t.Errorf("rank 1's DeadOrder() = %v, rank 0's log folds to %v", got, dead)
	}

	same := func(who string, got, want []Event) {
		t.Helper()
		for i := 0; i < max(len(got), len(want)); i++ {
			if i >= len(got) || i >= len(want) || got[i].String() != want[i].String() {
				from := max(i-2, 0)
				t.Errorf("%s read %d events, rank 0's log has %d there; from event %d on it read\n%srank 0's log has\n%s",
					who, len(got), len(want), from, lines(got[min(from, len(got)):min(i+3, len(got))]), lines(want[min(from, len(want)):min(i+3, len(want))]))
				return
			}
		}
	}
	same("rank 1", recs[1].evs, order)
	same("rank 2", recs[2].evs, order[:died2])
	for i, rec := range rank3 {
		from, to := 0, len(order)
		if i > 0 {
			from = back3[i-1] // its own re-admission is the last thing it missed
		}
		if i < len(died3) {
			to = died3[i]
		}
		// A respawn's reader attaches after the handshake; what arrived
		// before it and before the latest job by then is not kept for it.
		if k := to - len(rec.evs); k > from && k < to && order[k].Kind == EventJob {
			from = k
		}
		same(fmt.Sprintf("rank 3, incarnation %d", i), rec.evs, order[from:to])
	}

	// A worker that is handed a job has already adopted the membership the
	// job was placed against: the frames arrived in log order, and the
	// membership was installed before the job was appended.
	for r := 1; r <= 2; r++ {
		for _, seen := range recs[r].jobs {
			if want := membershipAt[seen.gen]; seen.adopted < want.adopted || (want.rank2Dead && !seen.rank2Dead) {
				t.Errorf("rank %d was handed job %d at wire generation %d (rank 2 dead: %v); the job was placed at >= %d (rank 2 dead: %v)",
					r, seen.gen, seen.adopted, seen.rank2Dead, want.adopted, want.rank2Dead)
			}
		}
	}

	// A cursor attached at generation g reads exactly the suffix that starts
	// at g's job — or right behind it, where a later job had displaced it
	// from the log by then (the reader that was handed the job, and attached
	// the cursor, keeps everything since).
	for r := 0; r <= 1; r++ {
		if len(recs[r].subs) == 0 {
			t.Errorf("rank %d attached no cursor at a job", r)
		}
		for i, sub := range recs[r].subs {
			at := jobAt[recs[r].from[i]]
			if len(sub.evs) > 0 && sub.evs[0].Kind != EventJob {
				at++
			}
			same(fmt.Sprintf("rank %d's cursor attached at generation %d", r, recs[r].from[i]), sub.evs, order[at:])
		}
	}
}

// held hands out what the log holds for the cursor right now.
func held(s *Subscription) []Event {
	var evs []Event
	for {
		s.c.mu.Lock()
		more := s.next < s.c.logBase+len(s.c.log)
		s.c.mu.Unlock()
		if !more {
			return evs
		}
		ev, _ := s.Next()
		evs = append(evs, ev)
	}
}

// deadNow returns the currently-dead ranks in verdict order.
func (c *Cluster) deadNow() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.deadOrder)
}

func (c *Cluster) logLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.log)
}

// A run-complete signal that precedes the run it ends — rank 0 finishes a
// DAG in which a worker owns no target without that worker — is replayed to
// the cursor of that generation when it attaches, once, and the run learns
// from Attach that it has ended; a cursor of a later generation is not handed
// it; two early signals of different
// generations are both there, each under its own. (The parent parked one
// signal in one slot: the second overwrote the first.)
func TestRunDoneBeforeTheRunIsReplayed(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 2, lazyDetector)
	// The worker's main loop, busy elsewhere: it reads nothing while rank 0
	// runs two jobs to the end without it.
	main := cls[1].Subscribe()
	defer main.Close()
	nowhere := func(Frame) {}
	var gens [2]uint32
	for i := range gens {
		job := startJob(cls[0], nil)
		gens[i] = job.Gen
		run := cls[0].Attach(job, nowhere) // as rank 0's side of the run would
		cls[0].Shutdown()
		run.Close()
		job.End()
	}
	for deadline := time.Now().Add(10 * time.Second); cls[1].logLen() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the worker's log holds %d events, want the two jobs and their run-complete signals", cls[1].logLen())
		}
	}
	for i, gen := range gens {
		// The main loop is handed the next job and starts its run.
		ev, _ := main.Next()
		for ev.Kind != EventJob || ev.Gen != gen {
			ev, _ = main.Next()
		}
		run := cls[1].Attach(ev.Job, nowhere)
		if !run.Ended() {
			t.Errorf("the run of generation %d attached behind its run-complete signal and was not told it had ended", gen)
		}
		evs := held(run)
		run.Close()
		if len(evs) == 0 || evs[0].Kind != EventJob || evs[0].Gen != gen {
			t.Fatalf("the cursor of generation %d starts at %v, want its job", gen, evs)
		}
		var done []uint32
		for _, ev := range evs {
			if ev.Kind == EventRunDone {
				done = append(done, ev.Gen)
			}
		}
		if want := gens[i:]; !slices.Equal(done, want) {
			t.Errorf("the cursor of generation %d was handed the run-complete signals of generations %v, want %v", gen, done, want)
		}
	}
}

// A standing pool's log does not grow with the jobs it has run: behind the
// latest job and the slowest live cursor nothing is kept.
func TestEventLogStaysShort(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 2, lazyDetector)
	logs := []<-chan Event{watch(t, cls[0]), watch(t, cls[1])}
	for i := 0; i < 2000; i++ {
		job := startJob(cls[0], []byte("spec"))
		run := cls[0].Attach(job, func(Frame) {})
		cls[0].Shutdown()
		run.Close()
		job.End()
		for r, log := range logs {
			if ev := await(t, log, EventRunDone); ev.Gen != job.Gen {
				t.Fatalf("cycle %d: rank %d read the run-complete signal of generation %d, want %d", i, r, ev.Gen, job.Gen)
			}
		}
	}
	for r, c := range cls {
		if n := c.logLen(); n > 8 {
			t.Errorf("rank %d retains %d events after 2000 jobs, want <= 8", r, n)
		}
	}
}

// joinRaw joins rank 0's control star as the given rank over a bare
// connection that completes the handshake and then only beats: what it
// reads, and whether, is the test's business.
func joinRaw(t *testing.T, cfg0 ClusterConfig, rank int) (*net.UnixConn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("unix", cfg0.Addr)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.Write(AppendFrame(nil, &Frame{Kind: ctlHello, Src: rank,
		Payload: appendHello(nil, &hello{Rank: rank, World: cfg0.World, Stamp: cfg0.Stamp, Addr: "nowhere"})}))
	if f, err := ReadFrame(br); err != nil || f.Kind != ctlWelcome {
		t.Fatalf("rank %d's handshake: frame %+v, error %v", rank, f, err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		conn.Close()
	})
	// It exits when the cleanup above closes stop.
	go func() {
		beat := AppendFrame(nil, &Frame{Kind: ctlBeat, Src: rank})
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				conn.Write(beat)
			}
		}
	}()
	return conn.(*net.UnixConn), br
}

// One worker that stops reading its control connection — a full socket
// buffer, a half-dead host — delays nobody but itself: broadcasts still
// reach the others at once, nobody else's stream is disturbed, the wedged
// link is closed once its queue overflows (silence then gets it a verdict),
// and what the wedged worker finds when it finally reads is whole frames up
// to a clean end of stream. (The parent wrote every broadcast to every
// socket under one lock with a 5 s deadline: each broadcast stalled all the
// others for that long, and a write that timed out left half a frame on the
// wire with the next frame's header behind it.)
func TestWedgedPeerDelaysNobody(t *testing.T) {
	// A broadcast that blocks under Cluster.mu (a send on a full control
	// queue) wedges rank 0's calls below, and the deferred Closes with them,
	// so t.Fatal could not end the test: end the binary with every
	// goroutine's stack, as the package timeout would, but in seconds.
	watchdog := time.AfterFunc(30*time.Second, func() {
		debug.SetTraceback("all")
		panic("TestWedgedPeerDelaysNobody: rank 0 still blocked after 30s; does a control broadcast block under Cluster.mu?")
	})
	defer watchdog.Stop()
	const world = 4
	dir := t.TempDir()
	cfg0 := testClusterConfig(dir, 0, world)
	c0, err := NewCluster(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	workers := make([]*Cluster, 3)
	for r := 1; r <= 2; r++ {
		if workers[r], err = NewCluster(testClusterConfig(dir, r, world)); err != nil {
			t.Fatal(err)
		}
		defer workers[r].Close()
	}
	// Rank 3 is a bare connection: it shakes hands, beats, and never reads.
	raw, br := joinRaw(t, cfg0, 3)
	for _, c := range []*Cluster{c0, workers[1], workers[2]} {
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
	}
	log0, log1 := watch(t, c0), watch(t, workers[1])

	// A few jobs with large payloads fill rank 3's socket buffer; the writer
	// of its link is now parked in the middle of a frame.
	big := make([]byte, 512<<10)
	for i := 0; i < 4; i++ {
		startJob(c0, big).End()
		await(t, log1, EventJob)
	}
	// (a) Broadcasts still reach rank 1 at once — the slowest of several,
	// so that one lucky scheduling does not pass for the design.
	var slowest time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		startJob(c0, nil).End()
		await(t, log1, EventJob)
		slowest = max(slowest, time.Since(start))
	}
	start := time.Now()
	c0.DeclareDead(2)
	if ev := await(t, log1, EventDead); ev.Rank != 2 {
		t.Fatalf("rank 1 read a verdict for rank %d, want 2", ev.Rank)
	}
	slowest = max(slowest, time.Since(start))
	t.Logf("with rank 3 wedged, the slowest of six broadcasts reached rank 1 in %v", slowest)
	if slowest > 100*time.Millisecond {
		t.Errorf("with rank 3 wedged a broadcast took %v to reach rank 1, want < 100ms", slowest)
	}
	// More than a queue's worth of frames, each one read by rank 1 before
	// the next is sent (b: its stream is whole and its coordinator never
	// lost — await fails on that): rank 3's link overflows and is closed, its
	// beats stop counting, and the monitor declares it dead.
	for i := 0; i < ctlQueueMax+1; i++ {
		c0.Shutdown()
		await(t, log1, EventRunDone)
	}
	await(t, log0, EventDead) // rank 2's, above
	for r, log := range []<-chan Event{log0, log1} {
		if ev := await(t, log, EventDead); ev.Rank != 3 {
			t.Fatalf("rank %d read a verdict for rank %d, want 3", r, ev.Rank)
		}
	}
	// (c) Rank 3 wakes up and reads what is there: whole frames, then EOF.
	frames := 0
	for {
		raw.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("rank 3 read %d whole frames, then: %v", frames, err)
		}
		frames++
	}
	if frames < 2 {
		t.Errorf("rank 3 read %d frames before the end of its stream, want at least the membership and the job its writer was parked in", frames)
	}
}

// A control write that fails closes the link, whatever else the connection
// still does: a worker that can no longer be told anything is not a member,
// however regularly it beats.
func TestFailedControlWriteClosesTheLink(t *testing.T) {
	cfg0 := testClusterConfig(t.TempDir(), 0, 2)
	c0, err := NewCluster(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	raw, _ := joinRaw(t, cfg0, 1)
	if err := c0.Start(); err != nil {
		t.Fatal(err)
	}
	raw.CloseRead() // from here on rank 0's writes to this socket fail
	c0.Shutdown()
	if ev := await(t, watch(t, c0), EventDead); ev.Rank != 1 {
		t.Errorf("rank 0 declared rank %d dead, want 1", ev.Rank)
	}
}

// The third way a control stream can fail, after breaking and stalling:
// garbage. A frame that does not decode, in the middle of an established
// link, costs the worker its coordinator — it logs the loss and hangs up —
// and, the worker's beats gone with its connection, rank 0 declares it dead.
func TestCorruptControlFrameLosesTheCoordinator(t *testing.T) {
	fast := func(cfg *ClusterConfig) {
		cfg.Heartbeat = FailureDetectorConfig{Interval: 10 * time.Millisecond, MissedBeats: 10}
	}
	cls := startTestCluster(t, t.TempDir(), 2, fast)
	log0, log1 := watch(t, cls[0]), watch(t, cls[1])
	cls[0].Shutdown()
	await(t, log1, EventRunDone) // the link is established and idle

	frame := AppendFrame(nil, &Frame{Kind: ctlJob, Epoch: 1, Payload: []byte("a job spec")})
	frame[len(frame)-1] ^= 0xff
	cls[0].mu.Lock()
	cls[0].links[1].enqueue(frame)
	cls[0].mu.Unlock()

	ev := await(t, log1, EventCoordLost)
	if !errors.Is(ev.Err, ErrBadChecksum) {
		t.Errorf("the worker lost its coordinator to %v, want the checksum error", ev.Err)
	}
	if ev := await(t, log0, EventDead); ev.Rank != 1 {
		t.Errorf("rank 0 declared rank %d dead, want 1", ev.Rank)
	}
}
