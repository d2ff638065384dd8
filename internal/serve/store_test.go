package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dag/dagtest"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/tree"
)

// Round trip at the codec level: a record survives encode -> decode exactly.
// Two records: a warmed plan's, and a synthetic one with a nonzero value in
// every field (a real plan's tables can all have DZ = 0, and its spec leaves
// most request fields unset), so a field the decoder drops or misplaces
// cannot hide behind a zero.
func TestStoreRecordCodecRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Deep enough that the multipole path runs: the operator tables are
	// built lazily by the first evaluation's M->M / M->L / L->L calls, and a
	// shallow all-near-field problem would never touch them.
	req := Request{N: 2000, Threshold: paperThr}
	if err := req.normalize(Config{}); err != nil {
		t.Fatal(err)
	}
	src, tgt := req.ensembles()
	plan, err := core.NewPlan(src, tgt, req.newKernel(), core.Options{Threshold: req.Threshold})
	if err != nil {
		t.Fatal(err)
	}
	dagtest.RequireFarField(t, plan.Graph)
	// Evaluate once so the kernel's lazily built operator tables exist.
	if _, _, err := plan.Evaluate(req.chargeVector(), core.ExecOptions{Localities: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	warmed := recordFor(&req, plan)
	if len(warmed.Ops) == 0 {
		t.Fatal("warmed plan exported no operator tables")
	}

	skeleton := func(v int) tree.Skeleton {
		f := float64(v)
		return tree.Skeleton{
			Domain: geom.Cube{Low: geom.Point{X: -f, Y: -2 * f, Z: -3 * f}, Side: 4 * f},
			Perm:   []int{v + 1, v},
			Boxes:  []tree.SkeletonBox{{Index: geom.Index{Level: 2, X: int32(v), Y: 2, Z: 3}, Lo: v, Hi: v + 1}},
		}
	}
	full := &PlanRecord{
		Key: "every-field",
		Spec: Request{
			Distribution: "sphere", N: 900, Seed: 7,
			Sources: [][3]float64{{0.1, 0.2, 0.3}}, Targets: [][3]float64{{0.4, 0.5, 0.6}},
			Kernel: "yukawa", Lambda: 2.5, Digits: 6, Threshold: 40,
			Localities: 1, Workers: 3, Charges: []float64{-1.5}, ChargeSeed: 11,
			DeadlineMS: 250, Trace: true,
		},
		Threshold: 60,
		Source:    skeleton(1),
		Target:    skeleton(2),
		Ops: []kernel.OperatorTable{{
			Kind: 3, SideBits: math.Float64bits(0.25), DX: -3, DY: 2, DZ: 1,
			Rule: 0x9e3779b97f4a7c15, Mx: []complex128{complex(1, -2)},
		}},
	}
	requireEveryField(t, reflect.ValueOf(full).Elem(), "PlanRecord")

	for _, rec := range []*PlanRecord{warmed, full} {
		if _, err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
		got, err := readRecordFile(st.recordPath(rec.Key))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("record %q changed in the round trip:\n got %+v\nwant %+v", rec.Key, got, rec)
		}
	}
}

// requireEveryField fails on a zero value anywhere in v, so a field added
// to the record later must be given a value above too.
func requireEveryField(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireEveryField(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice, reflect.Array:
		if v.Len() == 0 {
			t.Errorf("%s is empty", path)
		}
		for i := 0; i < v.Len(); i++ {
			requireEveryField(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	default:
		if v.IsZero() {
			t.Errorf("%s is zero", path)
		}
	}
}

// The acceptance path: a server with a store spills its warm plan; a second
// server ("restarted") over the same directory recovers it and serves the
// previously-warm key as a cache hit with zero plan rebuilds, matching a
// direct evaluation of the same problem to 1e-12.
func TestStoreRestartServesWarmKeyWithoutRebuild(t *testing.T) {
	dir := t.TempDir()
	req := Request{N: 1500, Threshold: paperThr, Workers: 1, Localities: 1}

	// First life: cold build + evaluation spills the record.
	s1 := New(Config{})
	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.UseStore(st1)
	ts1 := httptest.NewServer(s1.Handler())
	code, first, _ := post(t, ts1.URL, req)
	ts1.Close()
	if code != http.StatusOK {
		t.Fatalf("first-life request: HTTP %d", code)
	}
	if first.Report.CacheHit || first.Report.StoreHit {
		t.Fatalf("first-life request should be cold: %+v", first.Report)
	}
	m1 := s1.metrics.snapshot(s1.cache.len(), nil)
	if m1.StoreWrites != 1 || m1.StoreBytes <= 0 {
		t.Fatalf("store_writes=%d store_bytes=%d after cold evaluation, want 1 write",
			m1.StoreWrites, m1.StoreBytes)
	}

	// Second life: a fresh server over the same directory.
	s2 := New(Config{})
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.UseStore(st2)
	recovered, skipped, err := s2.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 1 || skipped != 0 {
		t.Fatalf("recovered %d, skipped %d, want 1 and 0", recovered, skipped)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, warm, _ := post(t, ts2.URL, req)
	if code != http.StatusOK {
		t.Fatalf("post-restart request: HTTP %d", code)
	}
	if !warm.Report.CacheHit || !warm.Report.StoreHit {
		t.Fatalf("post-restart request not served from the store: %+v", warm.Report)
	}
	if warm.Report.PlanBuild != 0 {
		t.Errorf("post-restart request rebuilt the plan (%v)", warm.Report.PlanBuild)
	}
	m2 := s2.metrics.snapshot(s2.cache.len(), nil)
	if m2.StoreRecovered != 1 || m2.StoreHits != 1 {
		t.Errorf("store_recovered=%d store_hits=%d, want 1 and 1", m2.StoreRecovered, m2.StoreHits)
	}
	if m2.CacheMisses != 0 || m2.PlanBuild.Count != 0 {
		t.Errorf("recovered key cost a rebuild: misses=%d builds=%d", m2.CacheMisses, m2.PlanBuild.Count)
	}
	if m2.StoreWrites != 0 {
		t.Errorf("recovered entry was re-spilled (%d writes)", m2.StoreWrites)
	}

	// Both lives match a direct core evaluation of the identical problem.
	sp := points.Generate(points.Cube, 1500, 1)
	tp := points.Generate(points.Cube, 1500, 2)
	plan, err := core.NewPlan(sp, tp, kernel.NewLaplace(kernel.OrderForDigits(3)), core.Options{Threshold: paperThr})
	if err != nil {
		t.Fatal(err)
	}
	dagtest.RequireFarField(t, plan.Graph)
	want, _, err := plan.Evaluate(points.Charges(1500, 3), core.ExecOptions{Localities: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Potentials) != len(want) {
		t.Fatalf("%d potentials, want %d", len(warm.Potentials), len(want))
	}
	for i := range want {
		scale := math.Max(1, math.Abs(want[i]))
		if d := math.Abs(warm.Potentials[i]-want[i]) / scale; d > 1e-12 {
			t.Fatalf("recovered potential %d off by %.2e", i, d)
		}
	}
}

// A record spilled by a build with the previous table layout — full
// (p+1)^2-square translation matrices and plane-wave matrices over every
// alpha-node — still revives: spec, skeletons and resolved threshold are
// layout-free, and its tables fail the kernel's size checks, so they are
// dropped and rebuilt lazily. The restarted daemon answers store_hit with
// the potentials a cold build computes.
func TestStoreRevivesRecordOfPreviousTableLayout(t *testing.T) {
	// What the previous layout held at 3 digits (p = 9): 100 coefficients
	// per expansion, 947 plane-wave terms per direction.
	const sqOld, totalOld = 100, 947
	dir := t.TempDir()
	// Enough points for a level-3 tree: M->M and L->L tables beside the
	// plane-wave ones.
	req := Request{N: 5000, Threshold: paperThr, Workers: 1, Localities: 1}

	s1 := New(Config{})
	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.UseStore(st1)
	ts1 := httptest.NewServer(s1.Handler())
	code, cold, _ := post(t, ts1.URL, req)
	ts1.Close()
	if code != http.StatusOK {
		t.Fatalf("first-life request: HTTP %d", code)
	}

	// Rewrite the spilled record's tables in the old sizes, keys untouched.
	if err := req.normalize(Config{}); err != nil {
		t.Fatal(err)
	}
	rec, err := st1.Get(req.planKey())
	if err != nil {
		t.Fatal(err)
	}
	planeWave := 0
	for i, op := range rec.Ops {
		size := sqOld * sqOld
		if op.Kind >= 3 { // the plane-wave kinds
			size = totalOld * sqOld
			planeWave++
		}
		if size == len(op.Mx) {
			t.Fatalf("table %d already has the previous layout's size %d: the fixture tests nothing", i, size)
		}
		rec.Ops[i].Mx = make([]complex128, size)
	}
	if planeWave == 0 || planeWave == len(rec.Ops) {
		t.Fatalf("fixture: %d plane-wave tables of %d, want both families", planeWave, len(rec.Ops))
	}
	if _, err := st1.Put(rec); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{})
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.UseStore(st2)
	if recovered, skipped, err := s2.RecoverFromStore(); err != nil || recovered != 1 || skipped != 0 {
		t.Fatalf("recovered %d, skipped %d, err %v; want 1, 0, nil", recovered, skipped, err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, warm, _ := post(t, ts2.URL, req)
	if code != http.StatusOK {
		t.Fatalf("post-restart request: HTTP %d", code)
	}
	if !warm.Report.StoreHit || warm.Report.PlanBuild != 0 {
		t.Fatalf("post-restart request not served from the store: %+v", warm.Report)
	}
	for i, want := range cold.Potentials {
		if d := math.Abs(warm.Potentials[i]-want) / math.Max(1, math.Abs(want)); d > 1e-12 {
			t.Fatalf("potential %d from the revived plan off the cold build's by %.2e", i, d)
		}
	}
}

// A spilled plane-wave table is reused only under the rule it was built
// from. A record whose wave tables carry another rule's fingerprint and
// values, sizes unchanged (what a binary with another rule of the same size
// would have spilled), is revived with those tables rebuilt: it answers as
// the fresh plan did, where adopting them by size would double the far field
// they carry.
func TestStoreRebuildsWaveTablesOfAnotherRule(t *testing.T) {
	dir := t.TempDir()
	req := Request{N: 5000, Threshold: paperThr, Workers: 1, Localities: 1}

	s1 := New(Config{})
	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.UseStore(st1)
	ts1 := httptest.NewServer(s1.Handler())
	code, cold, _ := post(t, ts1.URL, req)
	ts1.Close()
	if code != http.StatusOK {
		t.Fatalf("first-life request: HTTP %d", code)
	}

	if err := req.normalize(Config{}); err != nil {
		t.Fatal(err)
	}
	rec, err := st1.Get(req.planKey())
	if err != nil {
		t.Fatal(err)
	}
	waves := 0
	for i, op := range rec.Ops {
		if op.Kind < 3 { // the plane-wave kinds
			continue
		}
		if op.Rule == 0 {
			t.Fatalf("wave table %d spilled without a rule fingerprint", i)
		}
		rec.Ops[i].Rule ^= 1
		for j := range op.Mx {
			op.Mx[j] *= 2
		}
		waves++
	}
	if waves == 0 {
		t.Fatal("fixture: the record holds no plane-wave table")
	}
	if _, err := st1.Put(rec); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{})
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.UseStore(st2)
	if recovered, skipped, err := s2.RecoverFromStore(); err != nil || recovered != 1 || skipped != 0 {
		t.Fatalf("recovered %d, skipped %d, err %v; want 1, 0, nil", recovered, skipped, err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, warm, _ := post(t, ts2.URL, req)
	if code != http.StatusOK {
		t.Fatalf("post-restart request: HTTP %d", code)
	}
	if !warm.Report.StoreHit || warm.Report.PlanBuild != 0 {
		t.Fatalf("post-restart request not served from the store: %+v", warm.Report)
	}
	for i, want := range cold.Potentials {
		if d := math.Abs(warm.Potentials[i]-want) / math.Max(1, math.Abs(want)); d > 1e-12 {
			t.Fatalf("potential %d from the revived plan off the cold build's by %.2e", i, d)
		}
	}
}

// Corrupt, truncated and alien records are skipped and counted during
// recovery — never a crash, and they never block the readable records.
func TestStoreCorruptRecordsSkippedNeverFatal(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// One good record.
	req := Request{N: 400, Threshold: paperThr}
	if err := req.normalize(Config{}); err != nil {
		t.Fatal(err)
	}
	src, tgt := req.ensembles()
	plan, err := core.NewPlan(src, tgt, req.newKernel(), core.Options{Threshold: req.Threshold})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(recordFor(&req, plan)); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(st.recordPath(req.planKey()))
	if err != nil {
		t.Fatal(err)
	}

	// Damaged neighbours, one per failure mode.
	write := func(name string, b []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	truncated := append([]byte(nil), good[:len(good)/2]...)
	write("truncated.plan", truncated)
	flipped := append([]byte(nil), good...)
	flipped[storeHeaderSize+10] ^= 0xff
	write("bitflip.plan", flipped)
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	write("magic.plan", badMagic)
	badVersion := append([]byte(nil), good...)
	badVersion[4] = storeVersion + 1
	write("version.plan", badVersion)
	write("short.plan", []byte("junk"))

	s := New(Config{})
	s.UseStore(st)
	recovered, skipped, err := s.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 1 {
		t.Errorf("recovered %d records, want 1", recovered)
	}
	if skipped != 5 {
		t.Errorf("skipped %d records, want 5", skipped)
	}
	if got := s.Metrics().StoreCorrupt; got != 5 {
		t.Errorf("store_corrupt=%d, want 5", got)
	}
	if s.cache.len() != 1 {
		t.Errorf("cache holds %d plans after recovery, want 1", s.cache.len())
	}
}

// A record whose spec no longer reproduces its key (e.g. hand-edited or from
// a different keying scheme) is skipped, not served under the wrong key.
func TestStoreKeyMismatchSkipped(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{N: 400, Threshold: paperThr}
	if err := req.normalize(Config{}); err != nil {
		t.Fatal(err)
	}
	src, tgt := req.ensembles()
	plan, err := core.NewPlan(src, tgt, req.newKernel(), core.Options{Threshold: req.Threshold})
	if err != nil {
		t.Fatal(err)
	}
	rec := recordFor(&req, plan)
	rec.Key = "cube/n=999/seed=1/laplace/d=3/thr=60" // lies about the spec
	if _, err := st.Put(rec); err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	s.UseStore(st)
	recovered, skipped, err := s.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 0 || skipped != 1 {
		t.Errorf("recovered %d, skipped %d, want 0 and 1", recovered, skipped)
	}
}

// Inline-ensemble plans never spill: their geometry is not seed-replayable.
func TestStoreSkipsInlinePlans(t *testing.T) {
	s := New(Config{})
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.UseStore(st)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pts := make([][3]float64, 60)
	g := points.Generate(points.Cube, 60, 7)
	for i, p := range g {
		pts[i] = [3]float64{p.X, p.Y, p.Z}
	}
	code, _, _ := post(t, ts.URL, Request{Sources: pts, Targets: pts})
	if code != http.StatusOK {
		t.Fatalf("inline request: HTTP %d", code)
	}
	if got := s.Metrics().StoreWrites; got != 0 {
		t.Errorf("inline plan spilled (%d writes)", got)
	}
	if recs := loadAll(t, st); len(recs) != 0 {
		t.Errorf("store holds %d records after inline request, want 0", len(recs))
	}
}

// loadAll reads every readable record of a store.
func loadAll(t *testing.T, st *Store) (recs []*PlanRecord) {
	t.Helper()
	if _, err := st.Load(func(rec *PlanRecord) bool { recs = append(recs, rec); return true }); err != nil {
		t.Fatal(err)
	}
	return recs
}
