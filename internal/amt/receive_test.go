package amt

import (
	"sync/atomic"
	"testing"
)

// The receiver's contract, case by case. With no window, a copy's fate
// depends on who sent it and on whether a run is attached, never on its
// sequence number: the same number again, an older one and a far newer one
// are treated alike. Duplicates reach the run's handler; the run's own filter
// (core's parcel install) is what makes the effect exactly-once.
func TestReceiverContract(t *testing.T) {
	for _, tc := range []struct {
		name           string
		dead, detached bool
		acked, handed  bool
	}{
		{name: "live-rank-attached-run", acked: true, handed: true},
		{name: "dead-rank", dead: true},
		{name: "between-runs", detached: true, acked: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rw := &recordingWire{}
			dead := make([]atomic.Bool, 2)
			d := newDelivery(0, rw, DeliveryConfig{}, dead)
			var handed int
			run := d.attach(func(Frame) { handed++ })
			if tc.detached {
				d.detach(run)
			}
			dead[1].Store(tc.dead)
			seqs := []uint64{7, 7, 7, 1, 1 << 40}
			for i, seq := range seqs {
				f := Frame{Kind: 1, Src: 1, Dst: 0, Seq: seq}
				acks, before := len(rw.acks), handed
				if d.receive(f) {
					d.ack(f)
				}
				acked, got := len(rw.acks) > acks, handed-before
				if acked != tc.acked || got != map[bool]int{true: 1}[tc.handed] {
					t.Fatalf("copy %d (sequence %d): acked %v, handed over %d times; want acked %v, handed over %v",
						i, seq, acked, got, tc.acked, tc.handed)
				}
				if a := rw.acks; acked && (a[acks].Src != 0 || a[acks].Dst != 1 || a[acks].Seq != seq) {
					t.Fatalf("copy %d (sequence %d) was answered by %+v", i, seq, a[acks])
				}
			}
			st, n := d.stats(), int64(len(seqs))
			if want := map[bool]int64{true: n}; st.Delivered != want[tc.handed] || st.LateDrops != want[tc.detached] {
				t.Errorf("counted %d delivered, %d late; want %d, %d", st.Delivered, st.LateDrops, want[tc.handed], want[tc.detached])
			}
		})
	}
}
