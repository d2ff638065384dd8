package amt

import (
	"bufio"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testClusterConfig builds one rank's config for an in-process unix-socket
// cluster rooted in dir.
func testClusterConfig(dir string, rank, world int) ClusterConfig {
	return ClusterConfig{
		Rank: rank, World: world,
		Network: "unix",
		Addr:    filepath.Join(dir, "rank0.sock"),
		Stamp:   "test-stamp-v1",
	}
}

// startTestCluster brings up a full world of in-process clusters: rank 0
// first (it must be accepting before workers dial), workers concurrently
// (their NewCluster blocks in the join handshake), then the Start barrier
// everywhere.
func startTestCluster(t *testing.T, dir string, world int, mut func(*ClusterConfig)) []*Cluster {
	t.Helper()
	cls := make([]*Cluster, world)
	cfg0 := testClusterConfig(dir, 0, world)
	if mut != nil {
		mut(&cfg0)
	}
	c0, err := NewCluster(cfg0)
	if err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	cls[0] = c0
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 1; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := testClusterConfig(dir, r, world)
			if mut != nil {
				mut(&cfg)
			}
			cls[r], errs[r] = NewCluster(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := world - 1; r >= 0; r-- {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = cls[r].Start()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d start: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range cls {
			if c != nil {
				c.Close()
			}
		}
	})
	return cls
}

// watch pumps a rank's event log, from its oldest retained event on, into a
// channel a test can wait on with a deadline.
func watch(t *testing.T, c *Cluster) <-chan Event {
	t.Helper()
	sub := c.Subscribe()
	t.Cleanup(sub.Close)
	ch := make(chan Event, 1024) // the pump must never block the test's own Close
	// The pump exits when the cleanup above closes the subscription.
	go func() {
		defer close(ch)
		for {
			ev, ok := sub.Next()
			if !ok {
				return
			}
			ch <- ev
		}
	}()
	return ch
}

// await returns the next event of the given kind, skipping others — except
// the loss of the coordinator, which no test waits through.
func await(t *testing.T, ch <-chan Event, kind EventKind) Event {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("event log ended while waiting for an event of kind %d", kind)
			}
			if ev.Kind == kind {
				return ev
			}
			if ev.Kind == EventCoordLost {
				t.Fatalf("waiting for an event of kind %d: %v", kind, ev.Err)
			}
		case <-deadline:
			t.Fatalf("no event of kind %d within 10s", kind)
		}
	}
}

// frameLog is a frame sink a test can wait on.
type frameLog struct {
	mu  sync.Mutex
	got []Frame
}

func (l *frameLog) sink(f Frame) {
	l.mu.Lock()
	l.got = append(l.got, f)
	l.mu.Unlock()
}

func (l *frameLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.got)
}

// wait returns the frames received once there are n of them.
func (l *frameLog) wait(t *testing.T, n int) []Frame {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); l.len() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames arrived in 10s, want %d", l.len(), n)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.got)
}

// Transport returns the cluster's data-plane transport.
func (c *Cluster) Transport() *SocketTransport { return c.tp }

func (t *SocketTransport) parkedLen() int {
	t.fenceMu.Lock()
	defer t.fenceMu.Unlock()
	return len(t.parked)
}

// Frames sent over the data plane arrive at the addressed rank, and the
// byte/message counters move on both ends.
func TestClusterDataPlane(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 3, nil)
	type rx struct {
		mu     sync.Mutex
		frames []Frame
	}
	sinks := make([]*rx, 3)
	for r, c := range cls {
		s := &rx{}
		sinks[r] = s
		defer c.Attach(&Job{}, func(f Frame) {
			s.mu.Lock()
			s.frames = append(s.frames, f)
			s.mu.Unlock()
		}).Close()
	}
	sends := []struct {
		src, dst int
		payload  string
	}{
		{0, 1, "zero to one"},
		{1, 2, "one to two"},
		{2, 0, "two to zero"},
		{1, 0, "one to zero"},
	}
	for _, s := range sends {
		cls[s.src].Transport().Send(Frame{
			Src: s.src, Dst: s.dst, Seq: 1, Kind: 7, Payload: []byte(s.payload),
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range sends {
		for {
			sinks[s.dst].mu.Lock()
			var found bool
			for _, f := range sinks[s.dst].frames {
				if f.Src == s.src && string(f.Payload) == s.payload {
					found = true
				}
			}
			sinks[s.dst].mu.Unlock()
			if found {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("frame %d→%d never arrived", s.src, s.dst)
			}
			time.Sleep(time.Millisecond)
		}
	}
	st := cls[1].Transport().Stats()
	if st.Messages < 2 || st.BytesOut == 0 {
		t.Fatalf("rank 1 outbound counters did not move: %+v", st)
	}
	if st.BytesIn == 0 {
		t.Fatalf("rank 1 inbound byte counter did not move: %+v", st)
	}
}

// A joiner built from different sources (different stamp) is rejected with
// the reason on the wire.
func TestJoinWrongStampRejected(t *testing.T) {
	dir := t.TempDir()
	c0, err := NewCluster(testClusterConfig(dir, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	cfg := testClusterConfig(dir, 1, 2)
	cfg.Stamp = "some-other-build"
	_, err = NewCluster(cfg)
	if err == nil || !strings.Contains(err.Error(), "stamp") {
		t.Fatalf("want stamp-mismatch rejection, got %v", err)
	}
}

// A second process claiming an already-joined rank is turned away.
func TestJoinDuplicateRankRejected(t *testing.T) {
	dir := t.TempDir()
	c0, err := NewCluster(testClusterConfig(dir, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := NewCluster(testClusterConfig(dir, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	_, err = NewCluster(testClusterConfig(dir, 1, 3))
	if err == nil || !strings.Contains(err.Error(), "already joined") {
		t.Fatalf("want duplicate-rank rejection, got %v", err)
	}
}

// A world-size mismatch is a config error, not a hang.
func TestJoinWorldMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	c0, err := NewCluster(testClusterConfig(dir, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	cfg := testClusterConfig(dir, 1, 3)
	cfg.World = 2
	// Rank 1 is valid in both worlds; only the world field disagrees.
	_, err = NewCluster(cfg)
	if err == nil || !strings.Contains(err.Error(), "world size mismatch") {
		t.Fatalf("want world-mismatch rejection, got %v", err)
	}
}

// Garbage, truncated preambles and unexpected frame kinds on the listener
// are counted and dropped without wedging the acceptor: a well-formed join
// still succeeds afterwards.
func TestHandshakeJunkDoesNotWedgeAcceptor(t *testing.T) {
	dir := t.TempDir()
	cfg0 := testClusterConfig(dir, 0, 2)
	cfg0.JoinTimeout = 2 * time.Second // bound the half-open preamble reads
	c0, err := NewCluster(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()

	// Pure garbage: decodes as a bad magic.
	conn, err := net.Dial("unix", cfg0.Addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("this is not a frame at all, not even close......"))
	conn.Close()

	// A frame truncated mid-header.
	f := Frame{Kind: ctlHello, Src: 1, Payload: appendHello(nil, &hello{Rank: 1, World: 2, Stamp: cfg0.Stamp, Addr: "x"})}
	enc := AppendFrame(nil, &f)
	conn, err = net.Dial("unix", cfg0.Addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(enc[:FrameHeaderSize/2])
	conn.Close()

	// A valid frame of an unexpected kind.
	g := Frame{Kind: 0x0042, Src: 1}
	conn, err = net.Dial("unix", cfg0.Addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(AppendFrame(nil, &g))
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for c0.Transport().Stats().HandshakeFailures < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("handshake failures = %d, want >= 3", c0.Transport().Stats().HandshakeFailures)
		}
		time.Sleep(time.Millisecond)
	}

	// The acceptor still serves a real join.
	c1, err := NewCluster(testClusterConfig(dir, 1, 2))
	if err != nil {
		t.Fatalf("valid join after junk: %v", err)
	}
	defer c1.Close()
}

// A rank that goes silent (its process died) is detected over the real wire
// by rank 0's heartbeat monitor, and the verdict reaches every survivor.
func TestHeartbeatDeathDetection(t *testing.T) {
	// 100ms of silence, not the 40ms this used to allow: with the rest of
	// the suite sharing the cores a live rank's beat is late by that much
	// (seen: rank 1 declared dead beside rank 2).
	fast := func(cfg *ClusterConfig) {
		cfg.Heartbeat = FailureDetectorConfig{Interval: 10 * time.Millisecond, MissedBeats: 10}
	}
	cls := startTestCluster(t, t.TempDir(), 3, fast)
	logs := []<-chan Event{watch(t, cls[0]), watch(t, cls[1])}

	// Rank 2 "dies": its heartbeats stop, its sockets close.
	cls[2].Close()
	cls[2] = nil

	for r, log := range logs {
		if ev := await(t, log, EventDead); ev.Rank != 2 {
			t.Fatalf("rank %d logged the verdict %+v, want rank 2", r, ev)
		}
	}
	if !cls[0].dead[2].Load() || !cls[1].dead[2].Load() {
		t.Fatal("rank 2 still marked alive after the verdict")
	}
}

// The monitor counts its own ticks without a new beat, it does not read
// silence off the wall clock: a coordinator that was starved or paused finds
// timestamps as old as its stall — the beats are waiting in sockets its
// readers did not get to either — and must not take that for the workers'
// deaths. (It did: under `go test ./...` on two cores a live rank of the
// crash-recovery matrix was declared dead after 1.3s of "silence" the whole
// process had shared, and ran on as a zombie until its timeout.)
func TestMonitorCountsTicksNotWallClock(t *testing.T) {
	cfg := testClusterConfig(t.TempDir(), 0, 2)
	cfg.Heartbeat = FailureDetectorConfig{Interval: 10 * time.Millisecond, MissedBeats: 50}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// What the monitor finds after an hour's stall, then beats as usual.
	c.lastBeat[1].Store(time.Now().Add(-time.Hour).UnixNano())
	c.wg.Add(1)
	go c.monitorLoop()
	for i := 0; i < 10; i++ {
		time.Sleep(cfg.Heartbeat.Interval)
		c.lastBeat[1].Store(time.Now().UnixNano())
	}
	if c.dead[1].Load() {
		t.Fatal("a beating rank was declared dead off a stale timestamp")
	}
	// The beats stop: MissedBeats ticks later the rank is dead.
	if ev := await(t, watch(t, c), EventDead); ev.Rank != 1 {
		t.Fatalf("verdict for rank %d, want 1", ev.Rank)
	}
}

// A live rank that is declared dead (a false verdict) is told: it sees its
// own verdict and can fail its run at once, as FailureDetectorConfig
// promises. The broadcast used to skip the suspect, which then ran on,
// fenced by everyone and unheard, until its own timeout.
func TestFalseVerdictReachesTheSuspect(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 3, nil)
	cls[0].DeclareDead(2)
	for r, c := range cls {
		if ev := await(t, watch(t, c), EventDead); ev.Rank != 2 {
			t.Fatalf("rank %d logged a verdict for rank %d, want 2", r, ev.Rank)
		}
	}
}

// A broken data-plane connection is redialed (with a fresh ATTACH preamble)
// and counted as a reconnect; frames lost with the old connection surface
// as wire loss, not as an error.
func TestWriterReconnect(t *testing.T) {
	cl := &Cluster{cfg: testClusterConfig(t.TempDir(), 1, 2).withDefaults()}
	cl.cfg.Network = "tcp"
	tp := &SocketTransport{cl: cl}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer tp.close()

	attaches := make(chan Frame, 4)
	// The acceptor exits when the listener closes (deferred above).
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// The reader exits on its conn's EOF; the test closes the first conn
			// itself and tp.close tears down the rest.
			go func(conn net.Conn) {
				br := bufio.NewReader(conn)
				first, err := ReadFrame(br)
				if err != nil {
					conn.Close()
					return
				}
				attaches <- first
				// Read one data frame, then hang up mid-stream: everything
				// the writer had queued or in flight is lost.
				if _, err := ReadFrame(br); err == nil {
					conn.Close()
					return
				}
				conn.Close()
			}(conn)
		}
	}()

	var dead [2]atomic.Bool
	tp.setPeers([]string{ln.Addr().String(), ""}, dead[:])

	// The writer dials lazily — the ATTACH preamble rides ahead of the first
	// queued batch — so keep offering frames until both the initial attach
	// and, after the acceptor hangs up mid-stream, the re-attach arrive.
	deadline := time.Now().Add(10 * time.Second)
	var seq uint64
	for seen := 0; seen < 2; {
		seq++
		tp.Send(Frame{Src: 1, Dst: 0, Seq: seq, Kind: 7, Payload: []byte("probe")})
		select {
		case f := <-attaches:
			if f.Kind != ctlAttach {
				t.Fatalf("preamble frame kind %#x, want ATTACH", f.Kind)
			}
			seen++
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("saw %d attaches, no reconnect; stats %+v", seen, tp.Stats())
		}
	}
	if got := tp.Stats().Reconnects; got < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", got)
	}
}
