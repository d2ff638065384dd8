package amt

import (
	"testing"
	"time"
)

// A rank that died (heartbeat verdict) can rejoin: the coordinator
// re-admits it, bumps the wire generation, broadcasts the new membership to
// the survivors, and data flows again across the whole world.
func TestRejoinReadmission(t *testing.T) {
	dir := t.TempDir()
	fast := func(cfg *ClusterConfig) {
		cfg.Heartbeat = FailureDetectorConfig{Interval: 10 * time.Millisecond, MissedBeats: 6}
	}
	cls := startTestCluster(t, dir, 3, fast)
	log0, log2 := watch(t, cls[0]), watch(t, cls[2])

	// Rank 1 dies; rank 0's monitor issues the verdict.
	cls[1].Close()
	if ev := await(t, log0, EventDead); ev.Rank != 1 {
		t.Fatalf("verdict for rank %d, want 1", ev.Rank)
	}

	// A fresh incarnation rejoins. NewCluster's handshake waits out the
	// transient rejects (verdict racing the join) internally.
	cfg := testClusterConfig(dir, 1, 3)
	fast(&cfg)
	nc, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	cls[1] = nc // Cleanup closes it
	if err := nc.Start(); err != nil {
		t.Fatalf("rejoin start: %v", err)
	}

	// Rank 0 logs the re-admission when it makes it, the survivor when the
	// membership that revives the rank arrives.
	for r, log := range map[int]<-chan Event{0: log0, 2: log2} {
		if ev := await(t, log, EventRejoin); ev.Rank != 1 || ev.Gen != 1 {
			t.Fatalf("rank %d logged the re-admission %+v, want rank 1 at generation 1", r, ev)
		}
	}
	if cls[0].dead[1].Load() {
		t.Fatal("rank 1 still marked dead on rank 0 after re-admission")
	}
	if got := nc.Generation(); got != 1 {
		t.Fatalf("rejoiner generation = %d, want 1", got)
	}

	// The survivor adopted the new generation with that membership.
	if cls[2].Generation() != 1 || cls[2].dead[1].Load() {
		t.Fatalf("rank 2 logged the re-admission before adopting it (gen=%d alive1=%v)",
			cls[2].Generation(), !cls[2].dead[1].Load())
	}

	// Data flows at the generation of the next job: fresh rank 1 -> survivor
	// rank 2.
	job := startJob(cls[0], nil)
	defer job.End()
	var got frameLog
	defer cls[1].Attach(await(t, watch(t, nc), EventJob).Job, func(Frame) {}).Close()
	defer cls[2].Attach(await(t, log2, EventJob).Job, got.sink).Close()
	if gen := cls[2].Generation(); gen != job.Gen || gen <= 1 {
		t.Fatalf("rank 2 runs the job at generation %d, rank 0 allocated %d behind the re-admission's 1", gen, job.Gen)
	}
	cls[1].Transport().Send(Frame{Src: 1, Dst: 2, Seq: 9, Kind: 7, Payload: []byte("hello again")})
	// The frame arrives stamped with the sender's generation: the job's.
	if f := got.wait(t, 1)[0]; f.Epoch != job.Gen || string(f.Payload) != "hello again" {
		t.Fatalf("delivered frame = %+v", f)
	}
}

// A second incarnation is refused while the first is still alive: rejoin
// only re-admits ranks with a standing death verdict.
func TestRejoinWithoutVerdictRejected(t *testing.T) {
	dir := t.TempDir()
	startTestCluster(t, dir, 2, nil)
	cfg := testClusterConfig(dir, 1, 2)
	cfg.JoinTimeout = 500 * time.Millisecond
	if nc, err := NewCluster(cfg); err == nil {
		nc.Close()
		t.Fatal("rejoin admitted while the first incarnation is alive")
	}
}

// Frames stamped with an older wire generation than the receiver's are
// dropped there (counted, never delivered, never parked); frames of the
// attached run's generation flow.
func TestGenerationFenceDropsStaleFrames(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 2, nil)
	log1 := watch(t, cls[1])
	var got frameLog

	// Rank 0 has moved to the job's generation; rank 1 has not attached yet
	// and still stamps generation 0.
	job := startJob(cls[0], nil)
	defer job.End()
	defer cls[0].Attach(job, got.sink).Close()
	cls[1].Transport().Send(Frame{Src: 1, Dst: 0, Seq: 1, Kind: 7, Payload: []byte("stale")})
	deadline := time.Now().Add(5 * time.Second)
	for cls[0].Transport().Stats().StaleFenced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stale frame was never fenced")
		}
		time.Sleep(time.Millisecond)
	}
	if n, parked := got.len(), cls[0].tp.parkedLen(); n != 0 || parked != 0 {
		t.Fatalf("stale frame: %d delivered, %d parked", n, parked)
	}

	// Rank 1 attaches to the job; its next frame passes the fence.
	defer cls[1].Attach(await(t, log1, EventJob).Job, func(Frame) {}).Close()
	cls[1].Transport().Send(Frame{Src: 1, Dst: 0, Seq: 2, Kind: 7, Payload: []byte("fresh")})
	if f := got.wait(t, 1)[0]; string(f.Payload) != "fresh" || f.Epoch != job.Gen {
		t.Fatalf("delivered frame = %+v", f)
	}
}
