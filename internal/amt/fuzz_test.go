package amt

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzDecodeFrame drives ReadFrame with arbitrary streams. The decoder must
// never panic; when it accepts a frame, re-encoding it must reproduce the
// consumed bytes exactly (the header is fully canonical) and decode back to
// the same frame.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(fr *Frame) {
		f.Add(AppendFrame(nil, fr))
	}
	seed(&Frame{Kind: 3, Src: 1, Dst: 2, Epoch: 7, Seq: 42, Payload: []byte("hello, frame")})
	seed(&Frame{Flags: FlagAck, Kind: 1, Src: 2, Dst: 0, Seq: 9})
	seed(&Frame{Kind: 0xffff, Src: 65535, Dst: 65535, Epoch: ^uint32(0), Seq: ^uint64(0)})

	// Adversarial seeds: truncated header, truncated payload, corrupted
	// CRC trailer, hostile length field.
	golden := AppendFrame(nil, &Frame{Kind: 5, Payload: bytes.Repeat([]byte{0xab}, 64)})
	f.Add(golden[:FrameHeaderSize-1])
	f.Add(golden[:FrameHeaderSize+7])
	crcFlipped := append([]byte(nil), golden...)
	crcFlipped[28] ^= 0xff
	f.Add(crcFlipped)
	hostile := append([]byte(nil), golden[:FrameHeaderSize]...)
	hostile[24], hostile[25], hostile[26], hostile[27] = 0xff, 0xff, 0xff, 0x0f
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		enc := AppendFrame(nil, &fr)
		if len(enc) > len(data) {
			t.Fatalf("re-encoded frame is %d bytes but only %d were available", len(enc), len(data))
		}
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("encode(decode(x)) != x:\n got %x\nwant %x", enc, data[:len(enc)])
		}
		fr2, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("re-decoding a frame the decoder produced: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.Flags != fr.Flags || fr2.Src != fr.Src ||
			fr2.Dst != fr.Dst || fr2.Epoch != fr.Epoch || fr2.Seq != fr.Seq ||
			!bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("round-trip mismatch: %+v != %+v", fr2, fr)
		}
	})
}

// controlSeed is one named seed of FuzzDecodeControl.
type controlSeed struct {
	name string
	data []byte
}

// controlSeeds are a golden payload of each kind and the ways a hostile or
// damaged one goes wrong, for a world of 4.
func controlSeeds() []controlSeed {
	h := appendHello(nil, &hello{Rank: 3, World: 4, Stamp: "stamp-v1", Addr: "/tmp/r3.sock"})
	m := appendMembership(nil, &membership{Gen: 7,
		Addrs: []string{"/tmp/r0.sock", "/tmp/r1.sock", "", "/tmp/r3.sock"}, DeadOrder: []int{2, 1}})
	patch := func(b []byte, off int, v ...byte) []byte {
		out := append([]byte(nil), b...)
		copy(out[off:], v)
		return out
	}
	return []controlSeed{
		{"golden-hello", h},
		{"golden-membership", m},
		{"hello-truncated-addr", h[:len(h)-3]},
		{"hello-trailing-bytes", append(append([]byte(nil), h...), 0)},
		{"truncated-addr-list", m[:4+2+14+5]},
		{"truncated-dead-list", m[:len(m)-1]},
		{"oversized-addr-count", patch(m, 4, 0xff, 0xff)},
		{"oversized-dead-count", patch(m, len(m)-6, 0xff, 0xff)},
		{"dead-rank-beyond-world", patch(m, len(m)-4, 4, 0)},
		{"dead-rank-twice", patch(m, len(m)-2, 2, 0)},
		{"dead-coordinator", patch(m, len(m)-2, 0, 0)},
	}
}

// FuzzDecodeControl drives the control-plane payload decoders with arbitrary
// bytes. They must never panic, never size an allocation from a count the
// payload supplies (the world bounds every list), and accept only the
// canonical encoding: re-encoding what they accepted reproduces the input.
func FuzzDecodeControl(f *testing.F) {
	for _, seed := range controlSeeds() {
		f.Add(uint16(4), seed.data)
	}
	f.Fuzz(func(t *testing.T, world uint16, data []byte) {
		if h, err := decodeHello(data); err == nil {
			if enc := appendHello(nil, &h); !bytes.Equal(enc, data) {
				t.Fatalf("hello: encode(decode(x)) != x:\n got %x\nwant %x", enc, data)
			}
		}
		m, err := decodeMembership(data, int(world))
		if err != nil {
			return
		}
		if len(m.Addrs) != int(world) || len(m.DeadOrder) >= max(int(world), 1) {
			t.Fatalf("membership of %d ranks, %d of them dead, accepted for a world of %d", len(m.Addrs), len(m.DeadOrder), world)
		}
		for _, r := range m.DeadOrder {
			if r < 1 || r >= int(world) {
				t.Fatalf("dead rank %d accepted in a world of %d", r, world)
			}
		}
		if enc := appendMembership(nil, &m); !bytes.Equal(enc, data) {
			t.Fatalf("membership: encode(decode(x)) != x:\n got %x\nwant %x", enc, data)
		}
	})
}

// The seeds decode as their names say: the golden ones by their own decoder
// only, the others by neither.
func TestControlSeeds(t *testing.T) {
	for _, seed := range controlSeeds() {
		_, herr := decodeHello(seed.data)
		_, merr := decodeMembership(seed.data, 4)
		if (herr == nil) != (seed.name == "golden-hello") {
			t.Errorf("%s: decodeHello error %v", seed.name, herr)
		}
		if (merr == nil) != (seed.name == "golden-membership") {
			t.Errorf("%s: decodeMembership error %v", seed.name, merr)
		}
	}
}
