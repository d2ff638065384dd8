package amt

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
)

// The receiver window against the dedup set it replaced. The oracle keeps
// every sequence number handed over, per peer, for the whole run — the old
// filter, which never compacted — and recomputes the watermark from it,
// which is all it needs to know which copies the bounded window may refuse.
//
// An input is a script of 3-byte operations on rank 0's engine, with peers
// 1 and 2: ctl, then a little-endian uint16 v. ctl%8 picks the operation —
// 0..4 an arrival, 5 a death verdict, 6 a re-admission, 7 the end of the run
// or the start of the next — and bit 3 the peer. An arrival's sequence
// number is v itself when ctl has its high bit set (far: duplicates of old
// numbers, reorders past the window), otherwise the oracle's watermark plus
// v%32 (near: duplicates, reorders and gaps inside the window).

type windowOps []byte

func (o windowOps) op(ctl byte, peer int, v uint16) windowOps {
	return append(o, ctl|byte(peer-1)<<3, byte(v), byte(v>>8))
}
func (o windowOps) arrive(peer int, seq uint16) windowOps { return o.op(0x80, peer, seq) }
func (o windowOps) near(peer int, off uint16) windowOps   { return o.op(0, peer, off) }
func (o windowOps) sever(peer int) windowOps              { return o.op(5, peer, 0) }
func (o windowOps) revive(peer int) windowOps             { return o.op(6, peer, 0) }
func (o windowOps) runEdge() windowOps                    { return o.op(7, 1, 0) }

func (o windowOps) arrivals(peer int, seqs ...uint16) windowOps {
	for _, s := range seqs {
		o = o.arrive(peer, s)
	}
	return o
}

func windowSeeds() map[string]windowOps {
	var w windowOps
	return map[string]windowOps{
		"in-order":          w.arrivals(1, 1, 2, 3, 4, 5),
		"duplicates":        w.arrivals(2, 1, 1, 2, 2, 1, 3, 2),
		"reorder-with-gaps": w.arrivals(1, 3, 2, 5, 1, 4, 7).arrivals(2, 2, 1),
		// 4097 is past the window until 1 arrives, then inside it above a
		// gap; the gap fills and its copies are duplicates.
		"beyond-the-window": w.arrivals(1, windowMax+1, 1, windowMax+1, 2, windowMax+1, 0),
		// A verdict midway: the corpse's copies get no ack, the other peer's
		// window goes on as it was; the re-admitted incarnation numbers from
		// 1 again.
		"sever-and-revive": w.arrivals(1, 1, 2).arrivals(2, 1).sever(1).arrivals(1, 3, 1).
			arrivals(2, 1, 2).revive(1).arrivals(1, 2, 1, 3),
		// Between runs a copy is acked and dropped; the next run numbers
		// from 1 again.
		"between-runs":  w.arrivals(1, 1, 2).runEdge().arrivals(1, 1, 3).runEdge().arrivals(1, 1, 2),
		"near-scramble": w.near(1, 2).near(1, 0).near(1, 1).near(1, 1).near(2, 31).near(2, 0).near(1, 0),
	}
}

// checkWindow runs one script and holds every step to the oracle: every copy
// that is neither from a dead peer nor past the window is acked; every
// sequence number in the window is handed over exactly once per run and
// incarnation — so nothing handed over before a verdict is handed over again
// after it; a copy from a dead peer is neither acked nor handed over, one
// between runs is acked and never handed over; and the window stays bounded.
func checkWindow(t *testing.T, script []byte) {
	rw := &recordingWire{}
	dead := make([]atomic.Bool, 3)
	d := newDelivery(0, rw, DeliveryConfig{}, dead)
	var seen [3]map[uint64]bool // the oracle: per peer, handed over this run and incarnation
	var floor [3]uint64         // its watermark
	var handed [3]map[uint64]int
	restart := func(peer int) {
		seen[peer], floor[peer] = map[uint64]bool{}, 0
		handed[peer] = map[uint64]int{}
	}
	var run uint64
	attached := false
	attach := func() {
		restart(1)
		restart(2)
		run = d.attach(func(f Frame) { handed[f.Src][f.Seq]++ })
		attached = true
	}
	attach()
	for step := 0; len(script) >= 3; step, script = step+1, script[3:] {
		ctl, v := script[0], uint64(binary.LittleEndian.Uint16(script[1:]))
		peer := 1 + int(ctl>>3)%2
		switch ctl % 8 {
		case 5:
			// The cluster's order: the flag, then the sever.
			if dead[peer].CompareAndSwap(false, true) {
				d.sever(peer)
			}
			continue
		case 6:
			// The cluster's order: the restart, then the flag.
			if dead[peer].Load() {
				d.revive(peer)
				dead[peer].Store(false)
				restart(peer)
			}
			continue
		case 7:
			if attached {
				d.detach(run)
				attached = false
			} else {
				attach()
			}
			continue
		}
		seq := v
		if ctl&0x80 == 0 {
			seq = floor[peer] + v%32
		}
		acks, before := len(rw.acks), handed[peer][seq]
		if f := (Frame{Kind: 1, Src: peer, Dst: 0, Seq: seq}); d.receive(f) {
			d.ack(f)
		}
		acked := len(rw.acks) > acks
		if acked {
			if a := rw.acks[acks]; a.Src != 0 || a.Dst != peer || a.Seq != seq {
				t.Fatalf("step %d: copy %d from rank %d was answered by %+v", step, seq, peer, a)
			}
		}
		got := handed[peer][seq] - before
		inWindow := seq <= floor[peer]+windowMax
		want := 0
		switch {
		case dead[peer].Load():
			if acked || got != 0 {
				t.Fatalf("step %d: a dead rank's copy %d was acked %v, handed over %d times", step, seq, acked, got)
			}
			continue
		case !attached || !inWindow:
			if acked == !attached && got == 0 { // late: acked; past the window: loss
				continue
			}
			t.Fatalf("step %d: copy %d from rank %d (run attached %v, in the window %v) was acked %v, handed over %d times",
				step, seq, peer, attached, inWindow, acked, got)
		case seq > floor[peer] && !seen[peer][seq]:
			want = 1
			seen[peer][seq] = true
			for seen[peer][floor[peer]+1] {
				floor[peer]++
			}
		}
		if !acked || got != want {
			t.Fatalf("step %d: copy %d from rank %d was acked %v, handed over %d times; want acked, handed over %d", step, seq, peer, acked, got, want)
		}
		if n := len(d.peers[peer].above); n > windowMax {
			t.Fatalf("step %d: the window holds %d sequence numbers, the bound is %d", step, n, windowMax)
		}
	}
}

// FuzzDeliveryWindow: the window against the oracle, on any script.
func FuzzDeliveryWindow(f *testing.F) {
	for _, s := range windowSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, script []byte) { checkWindow(t, script) })
}

// The same property on long seeded scripts, and the seeds, which with
// REGEN_FUZZ_CORPUS=1 are (re)written as the checked-in corpus.
func TestDeliveryWindowAgainstSeenSet(t *testing.T) {
	for name, s := range windowSeeds() {
		checkWindow(t, s)
		if os.Getenv("REGEN_FUZZ_CORPUS") == "1" {
			dir := filepath.Join("testdata", "fuzz", "FuzzDeliveryWindow")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var s windowOps
			for i := 0; i < 3000; i++ {
				peer := 1 + rng.Intn(2)
				switch r := rng.Intn(1000); {
				case r < 3:
					s = s.sever(peer)
				case r < 8:
					s = s.revive(peer)
				case r < 10:
					s = s.runEdge()
				case r < 60:
					s = s.arrive(peer, uint16(rng.Intn(2*windowMax)))
				default:
					s = s.near(peer, uint16(rng.Intn(32)))
				}
			}
			checkWindow(t, s)
		})
	}
}
