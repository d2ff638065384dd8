package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/tree"
)

// FuzzJobSpec drives the job payload, a plan spec, with arbitrary bytes.
// Decode must never panic, and neither may resolving a spec it accepts; an
// accepted spec must reach a fixpoint after one canonicalizing round trip
// (the first decode may normalize, e.g. a field of an older job payload —
// gen, pre_dead, run_seed, timeout_ms — is dropped, but after that the
// encoding must be stable).
func FuzzJobSpec(f *testing.F) {
	for _, spec := range []planSpec{
		{Request: Request{Distribution: "cube", N: 64, Seed: 1, Kernel: "laplace", Digits: 3,
			ChargeSeed: 3, DeadlineMS: 500}, ResolvedThreshold: 40},
		{Request: Request{Distribution: "sphere", N: 10, Seed: 3, Kernel: "yukawa", Lambda: 2.5, Digits: 6,
			Threshold: 10, DeadlineMS: 100}, ResolvedThreshold: 10},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"gen":7,"pre_dead":[],"n":-1,"lambda":1e300}`))
	f.Add([]byte(`{"gen":`))

	decode := func(b []byte) (planSpec, error) {
		var spec planSpec
		err := json.Unmarshal(b, &spec)
		return spec, err
	}
	encode := func(t *testing.T, spec planSpec) []byte {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("encoding a decoded spec: %v", err)
		}
		return b
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j1, err := decode(data)
		if err != nil {
			return
		}
		j1.resolve()
		canon := encode(t, j1)
		j2, err := decode(canon)
		if err != nil {
			t.Fatalf("re-decoding an encoding the codec produced: %v", err)
		}
		if enc2 := encode(t, j2); !bytes.Equal(canon, enc2) {
			t.Fatalf("encoding not a fixpoint:\n first %s\nsecond %s", canon, enc2)
		}
		j3, err := decode(encode(t, j2))
		if err != nil {
			t.Fatalf("third decode: %v", err)
		}
		if !reflect.DeepEqual(j2, j3) {
			t.Fatalf("round-trip mismatch: %+v != %+v", j2, j3)
		}
	})
}

// FuzzStoreLoad drives the DMMP record payload codec. Decode must never
// panic, and a record it accepts must re-encode to a stable byte string:
// floats and complexes travel as raw IEEE bits (NaN payloads included), so
// the comparison is over encodings, which is bitwise, not over values,
// which NaN would break.
func FuzzStoreLoad(f *testing.F) {
	rec := &PlanRecord{
		Key:  "laplace/cube/64",
		Spec: Request{Distribution: "cube", N: 64, Seed: 1, Kernel: "laplace", Digits: 3},
		Source: tree.Skeleton{
			Domain: geom.Cube{Low: geom.Point{X: -1, Y: -1, Z: -1}, Side: 2},
			Perm:   []int{1, 0, 2},
			Boxes: []tree.SkeletonBox{
				{Index: geom.Index{Level: 0}, Lo: 0, Hi: 3},
				{Index: geom.Index{Level: 1, X: 1, Y: 0, Z: 1}, Lo: 0, Hi: 2},
			},
		},
		Target: tree.Skeleton{
			Domain: geom.Cube{Side: 1},
			Perm:   []int{0},
			Boxes:  []tree.SkeletonBox{{Lo: 0, Hi: 1}},
		},
		Ops: []kernel.OperatorTable{
			{Kind: 1, SideBits: 0x3ff0000000000000, DX: 1, DY: -1, DZ: 0,
				Mx: []complex128{complex(1.5, -2.5), complex(0, 3)}},
			{Kind: 3, SideBits: 0x3fd0000000000000, DX: 2, DY: 2, Rule: 0x9e3779b97f4a7c15,
				Mx: []complex128{complex(-1, 0.5)}},
		},
	}
	f.Add(appendRecord(nil, rec))
	f.Add(appendRecord(nil, &PlanRecord{Key: "k", Spec: Request{}}))
	// Truncated and key-less corruptions.
	full := appendRecord(nil, rec)
	f.Add(full[:len(full)-5])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec1, err := decodeRecord(data)
		if err != nil {
			return
		}
		enc1 := appendRecord(nil, rec1)
		rec2, err := decodeRecord(enc1)
		if err != nil {
			t.Fatalf("re-decoding an encoding the codec produced: %v", err)
		}
		enc2 := appendRecord(nil, rec2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not a fixpoint: %d vs %d bytes", len(enc1), len(enc2))
		}
	})
}
