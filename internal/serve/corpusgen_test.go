package serve

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/tree"
)

// TestGenerateCorpus regenerates the checked-in seed corpus when run with
// REGEN_FUZZ_CORPUS=1 (mirrors the amt codec corpus generator).
func TestGenerateCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") != "1" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to regenerate")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write("FuzzJobSpec", "golden-spec",
		[]byte(`{"gen":1,"distribution":"cube","n":64,"seed":1,"kernel":"laplace","digits":3,"threshold":40,"run_seed":1,"timeout_ms":500}`))
	write("FuzzJobSpec", "empty-predead", []byte(`{"gen":7,"pre_dead":[],"lambda":1e300}`))
	for name, seed := range map[string]string{"zero": "0", "negative": "-42", "max": "9223372036854775807"} {
		write("FuzzJobSpec", "charge-seed-"+name,
			[]byte(`{"distribution":"cube","n":64,"seed":1,"kernel":"laplace","digits":3,"threshold":40,"charge_seed":`+seed+`,"timeout_ms":500}`))
	}

	rec := &PlanRecord{
		Key:  "laplace/cube/64",
		Spec: Request{Distribution: "cube", N: 64, Seed: 1, Kernel: "laplace", Digits: 3},
		Source: tree.Skeleton{
			Domain: geom.Cube{Low: geom.Point{X: -1, Y: -1, Z: -1}, Side: 2},
			Perm:   []int{1, 0, 2},
			Boxes:  []tree.SkeletonBox{{Index: geom.Index{Level: 1, X: 1}, Lo: 0, Hi: 2}},
		},
		Target: tree.Skeleton{Domain: geom.Cube{Side: 1}, Perm: []int{0}},
		Ops: []kernel.OperatorTable{
			{Kind: 1, SideBits: 0x3ff0000000000000, DX: 1, DY: -1,
				Mx: []complex128{complex(1.5, -2.5)}},
			{Kind: 3, SideBits: 0x3fd0000000000000, DX: 2, DY: 2, Rule: 0x9e3779b97f4a7c15,
				Mx: []complex128{complex(-1, 0.5)}},
		},
	}
	golden := appendRecord(nil, rec)
	write("FuzzStoreLoad", "golden-record", golden)
	write("FuzzStoreLoad", "truncated-record", golden[:len(golden)-5])
}
