package amt

import (
	"sync"
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
	// transient rejects (verdict racing the REJOIN) internally.
	cfg := testClusterConfig(dir, 1, 3)
	fast(&cfg)
	cfg.Rejoin = true
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

	// Data flows at the new generation: fresh rank 1 -> survivor rank 2.
	var mu sync.Mutex
	var got []Frame
	cls[2].Transport().OnFrame(func(f Frame) {
		mu.Lock()
		got = append(got, f)
		mu.Unlock()
	})
	cls[1].Transport().Send(Message{Src: 1, Dst: 2, Seq: 9, Kind: 7, Epoch: 42, Payload: []byte("hello again")})
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		var f Frame
		if n > 0 {
			f = got[0]
		}
		mu.Unlock()
		if n > 0 {
			// The wire generation is stripped back off before delivery.
			if f.Epoch != 42 || string(f.Payload) != "hello again" {
				t.Fatalf("delivered frame = %+v", f)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("post-rejoin frame 1→2 never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

// A second incarnation is refused while the first is still alive: rejoin
// only re-admits ranks with a standing death verdict.
func TestRejoinWithoutVerdictRejected(t *testing.T) {
	dir := t.TempDir()
	startTestCluster(t, dir, 2, nil)
	cfg := testClusterConfig(dir, 1, 2)
	cfg.Rejoin = true
	cfg.JoinTimeout = 500 * time.Millisecond
	if nc, err := NewCluster(cfg); err == nil {
		nc.Close()
		t.Fatal("rejoin admitted while the first incarnation is alive")
	}
}

// Frames stamped with a stale wire generation are dropped at the receiver
// (counted, never delivered); frames at the adopted generation flow.
func TestGenerationFenceDropsStaleFrames(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 2, nil)
	var mu sync.Mutex
	var got []Frame
	cls[0].Transport().OnFrame(func(f Frame) {
		mu.Lock()
		got = append(got, f)
		mu.Unlock()
	})

	// Rank 0 has moved to generation 1; rank 1 still stamps generation 0.
	cls[0].AdoptGeneration(1)
	cls[1].Transport().Send(Message{Src: 1, Dst: 0, Seq: 1, Kind: 7, Payload: []byte("stale")})
	deadline := time.Now().Add(5 * time.Second)
	for cls[0].Transport().Stats().StaleFenced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stale frame was never fenced")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if len(got) != 0 {
		t.Fatalf("stale frame delivered: %+v", got)
	}
	mu.Unlock()

	// Rank 1 adopts the generation; its next frame passes the fence.
	cls[1].AdoptGeneration(1)
	cls[1].Transport().Send(Message{Src: 1, Dst: 0, Seq: 2, Kind: 7, Epoch: 7, Payload: []byte("fresh")})
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		var f Frame
		if n > 0 {
			f = got[0]
		}
		mu.Unlock()
		if n > 0 {
			if string(f.Payload) != "fresh" || f.Epoch != 7 {
				t.Fatalf("delivered frame = %+v", f)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fresh frame never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}
