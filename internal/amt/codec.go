package amt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// The wire frame codec for multi-process parcel transport (DESIGN.md,
// "Distribution"). Framing is hand-rolled and length-prefixed: a fixed
// 32-byte header carrying a magic tag, a codec version, the message
// metadata the delivery layer needs (src/dst rank, sequence number, ack
// flag, epoch, payload kind) and a CRC32 over header+payload, then
// the payload bytes. The decoder errors — never panics, never hangs — on a
// truncated, corrupted or oversized frame; the transport reacts by dropping
// the connection, which the delivery layer experiences as wire loss.
//
// Layout (little endian):
//
//	off  size  field
//	0    4     magic "DMM1"
//	4    1     codec version
//	5    1     flags (bit 0: ack)
//	6    2     kind  (payload type tag, app-defined)
//	8    2     src rank
//	10   2     dst rank
//	12   4     epoch (a data frame: the sender's wire generation)
//	16   8     sequence number
//	24   4     payload length
//	28   4     CRC32 (IEEE) over header[0:28] + payload
//	32   ...   payload

const (
	frameMagic   = 0x444d4d31 // "DMM1"
	CodecVersion = 1
	// FrameHeaderSize is the fixed frame header length in bytes.
	FrameHeaderSize = 32
	// MaxFramePayload bounds a single frame's payload so a corrupted or
	// hostile length field cannot make the decoder allocate absurd buffers.
	MaxFramePayload = 1 << 28 // 256 MiB
)

// Frame flags.
const (
	// FlagAck marks a delivery-layer acknowledgment frame.
	FlagAck = 1 << 0
)

// Codec decode errors. Truncations surface as io.ErrUnexpectedEOF wrapped
// with position context.
var (
	ErrBadMagic     = errors.New("amt: bad frame magic")
	ErrBadVersion   = errors.New("amt: frame codec version mismatch")
	ErrBadChecksum  = errors.New("amt: frame checksum mismatch")
	ErrFrameTooBig  = errors.New("amt: frame payload exceeds limit")
	errShortPayload = errors.New("amt: truncated frame payload")
)

// Frame is one wire message: the delivery-layer metadata plus the opaque
// typed payload. A data frame's Epoch is its sender's wire generation (the
// transport stamps it, the receiver's fence reads it); a control frame's is
// what its kind says (cluster.go).
type Frame struct {
	Kind     uint16
	Flags    uint8
	Src, Dst int
	Epoch    uint32
	Seq      uint64
	Payload  []byte
}

// Ack reports whether the frame is a delivery-layer acknowledgment.
func (f *Frame) Ack() bool { return f.Flags&FlagAck != 0 }

// AppendFrame encodes the frame onto dst and returns the extended slice.
func AppendFrame(dst []byte, f *Frame) []byte {
	base := len(dst)
	dst = append(dst, make([]byte, FrameHeaderSize)...)
	h := dst[base:]
	binary.LittleEndian.PutUint32(h[0:], frameMagic)
	h[4] = CodecVersion
	h[5] = f.Flags
	binary.LittleEndian.PutUint16(h[6:], f.Kind)
	binary.LittleEndian.PutUint16(h[8:], uint16(f.Src))
	binary.LittleEndian.PutUint16(h[10:], uint16(f.Dst))
	binary.LittleEndian.PutUint32(h[12:], f.Epoch)
	binary.LittleEndian.PutUint64(h[16:], f.Seq)
	binary.LittleEndian.PutUint32(h[24:], uint32(len(f.Payload)))
	crc := crc32.NewIEEE()
	crc.Write(h[0:28])
	crc.Write(f.Payload)
	binary.LittleEndian.PutUint32(h[28:], crc.Sum32())
	return append(dst, f.Payload...)
}

// ReadFrame decodes one frame from the stream. A clean EOF before the first
// header byte returns io.EOF; any mid-frame truncation returns an error
// wrapping io.ErrUnexpectedEOF. The returned payload is freshly allocated
// (the frame owns it).
func ReadFrame(br *bufio.Reader) (Frame, error) {
	var h [FrameHeaderSize]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("amt: truncated frame header: %w", io.ErrUnexpectedEOF)
	}
	if binary.LittleEndian.Uint32(h[0:]) != frameMagic {
		return Frame{}, ErrBadMagic
	}
	if h[4] != CodecVersion {
		return Frame{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, h[4], CodecVersion)
	}
	plen := binary.LittleEndian.Uint32(h[24:])
	if plen > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, plen)
	}
	f := Frame{
		Flags: h[5],
		Kind:  binary.LittleEndian.Uint16(h[6:]),
		Src:   int(binary.LittleEndian.Uint16(h[8:])),
		Dst:   int(binary.LittleEndian.Uint16(h[10:])),
		Epoch: binary.LittleEndian.Uint32(h[12:]),
		Seq:   binary.LittleEndian.Uint64(h[16:]),
	}
	if plen > 0 {
		payload, err := readPayload(br, int(plen))
		if err != nil {
			return Frame{}, fmt.Errorf("%w: %w", errShortPayload, io.ErrUnexpectedEOF)
		}
		f.Payload = payload
	}
	crc := crc32.NewIEEE()
	crc.Write(h[0:28])
	crc.Write(f.Payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(h[28:]) {
		return Frame{}, ErrBadChecksum
	}
	return f, nil
}

// readPayload reads exactly n payload bytes, growing the buffer in 1 MiB
// chunks as data actually arrives. The header's length field is attacker
// (or corruption) controlled: committing the full MaxFramePayload up front
// would let a 32-byte header pin 256 MiB per connection, so allocation must
// track received bytes, not the advertised length.
func readPayload(br *bufio.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		m := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, m)...)
		if _, err := io.ReadFull(br, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Control-plane payloads (cluster.go): the join preamble and the membership
// snapshot. Same discipline as the frame around them — little endian, u16
// counts and string lengths, decoders that error and never panic — plus
// two rules of their own: a list is sized from the local world, never from
// a count off the wire, and only the canonical encoding is accepted (no
// trailing bytes), so accept ⇒ re-encode is byte-identical.

// hello is the preamble of a control join (HELLO) and of a
// data-plane connection (ATTACH, which leaves Addr empty).
type hello struct {
	Rank, World int
	Stamp       string // build/version + scenario; must equal the acceptor's
	Addr        string // the joiner's data-plane listen address
}

// membership is rank 0's view of the cluster, sent whole whenever a join
// changes it: the START that releases the barrier is the first one, every
// re-admission sends the next.
type membership struct {
	Gen       uint32   // wire generation every receiver adopts
	Addrs     []string // data-plane listen address per rank
	DeadOrder []int    // currently-dead ranks in verdict order
}

// Cursor reads a payload that crossed a process boundary — a control frame,
// a parcel, a plan-store record — front to back, little endian. Every read is
// bounds-checked; the first one the remaining bytes cannot satisfy sticks and
// it and every later read yield zero values, so a decoder runs straight
// through and asks Done once (and Short where a zero would mislead a branch).
type Cursor struct {
	b     []byte // the unread rest
	short bool
}

// NewCursor starts a cursor at the head of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

var errTruncated = errors.New("amt: truncated payload")

func (r *Cursor) take(n int) []byte {
	if r.short || n > len(r.b) {
		r.short = true
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Short reports whether a read has already failed.
func (r *Cursor) Short() bool { return r.short }

// uint reads an n-byte unsigned integer, n ≤ 8.
func (r *Cursor) uint(n int) uint64 {
	var v [8]byte
	copy(v[:], r.take(n))
	return binary.LittleEndian.Uint64(v[:])
}

func (r *Cursor) U8() uint8   { return uint8(r.uint(1)) }
func (r *Cursor) U16() uint16 { return uint16(r.uint(2)) }
func (r *Cursor) U32() uint32 { return uint32(r.uint(4)) }
func (r *Cursor) U64() uint64 { return r.uint(8) }

func (r *Cursor) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a u32 length and that many bytes, aliasing the payload.
func (r *Cursor) Bytes() []byte { return r.take(r.Count(1)) }

// Str reads a u16 length and a string of that many bytes.
func (r *Cursor) Str() string { return string(r.take(int(r.U16()))) }

// F64s fills dst from the next 8·len(dst) bytes: one bounds check for the
// whole vector, and on a short payload dst is left untouched.
func (r *Cursor) F64s(dst []float64) {
	if b := r.take(8 * len(dst)); b != nil {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// C128s fills dst from the next 16·len(dst) bytes (real, then imaginary
// part), under the same terms as F64s.
func (r *Cursor) C128s(dst []complex128) {
	if b := r.take(16 * len(dst)); b != nil {
		for i := range dst {
			re := math.Float64frombits(binary.LittleEndian.Uint64(b[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:]))
			dst[i] = complex(re, im)
		}
	}
}

// Count reads a u32 element count and refuses one the remaining bytes cannot
// hold at elemSize bytes or more an element: what a decoder allocates tracks
// the bytes it was given, never a length they advertise (readPayload's rule).
func (r *Cursor) Count(elemSize int) int {
	n := uint64(r.U32())
	if n*uint64(elemSize) > uint64(len(r.b)) {
		r.short = true
		return 0
	}
	return int(n)
}

// Done reports a payload that ended early or late.
func (r *Cursor) Done() error {
	switch {
	case r.short:
		return errTruncated
	case len(r.b) != 0:
		return fmt.Errorf("amt: %d trailing bytes in payload", len(r.b))
	}
	return nil
}

// AppendBytes appends v behind its u32 length (Cursor.Bytes). The append
// side of the cursor is binary.LittleEndian.AppendUintNN plus these three.
func AppendBytes(dst, v []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(v))), v...)
}

// AppendF64s appends the values' IEEE bits (Cursor.F64s).
func AppendF64s(dst []byte, vs ...float64) []byte {
	dst = slices.Grow(dst, 8*len(vs))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendC128s appends real and imaginary part of each value (Cursor.C128s).
func AppendC128s(dst []byte, vs []complex128) []byte {
	dst = slices.Grow(dst, 16*len(vs))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(real(v)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(imag(v)))
	}
	return dst
}

func appendU16(dst []byte, v int) []byte { return binary.LittleEndian.AppendUint16(dst, uint16(v)) }

func appendStr(dst []byte, s string) []byte { return append(appendU16(dst, len(s)), s...) }

func appendHello(dst []byte, h *hello) []byte {
	dst = appendU16(dst, h.Rank)
	dst = appendU16(dst, h.World)
	dst = appendStr(dst, h.Stamp)
	return appendStr(dst, h.Addr)
}

func decodeHello(b []byte) (hello, error) {
	r := NewCursor(b)
	var h hello
	h.Rank = int(r.U16())
	h.World = int(r.U16())
	h.Stamp = r.Str()
	h.Addr = r.Str()
	return h, r.Done()
}

func appendMembership(dst []byte, m *membership) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, m.Gen)
	dst = appendU16(dst, len(m.Addrs))
	for _, a := range m.Addrs {
		dst = appendStr(dst, a)
	}
	dst = appendU16(dst, len(m.DeadOrder))
	for _, r := range m.DeadOrder {
		dst = appendU16(dst, r)
	}
	return dst
}

// decodeMembership decodes a membership for a cluster of the given size: it
// must list exactly world addresses, and its dead ranks must be distinct
// worker ranks of that world.
func decodeMembership(b []byte, world int) (membership, error) {
	r := NewCursor(b)
	var m membership
	m.Gen = r.U32()
	if n := int(r.U16()); !r.Short() && n != world {
		return m, fmt.Errorf("amt: membership lists %d ranks, world is %d", n, world)
	}
	m.Addrs = make([]string, world)
	for i := range m.Addrs {
		m.Addrs[i] = r.Str()
	}
	n := int(r.U16())
	if n >= world {
		return m, fmt.Errorf("amt: membership lists %d dead ranks in a world of %d", n, world)
	}
	m.DeadOrder = make([]int, n)
	for i := range m.DeadOrder {
		d := int(r.U16())
		if !r.Short() && (d < 1 || d >= world || slices.Contains(m.DeadOrder[:i], d)) {
			return m, fmt.Errorf("amt: membership lists dead rank %d (world %d, each worker at most once)", d, world)
		}
		m.DeadOrder[i] = d
	}
	return m, r.Done()
}
