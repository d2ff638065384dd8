package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/amt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/tree"
)

// The persistent plan store: warm plan state spilled to checksummed on-disk
// records so a restarted dashmm-serve recovers its cache without
// recomputation. A record holds everything expensive about a built, warmed
// plan that is not re-derivable for free:
//
//   - the request spec (distribution, n, seed, kernel, accuracy) — the
//     cheap part: points regenerate deterministically from the seed — and
//     beside it the refinement threshold the trees were built with, which
//     for a request that left it to the tuner is not in the spec;
//   - the tree skeletons (Morton-order permutation + box structure) for
//     both ensembles — recovery skips the recursive octant partitioning;
//   - the kernel's cached dense translation operators (M->M, M->L, L->L)
//     — the matrices a first evaluation pays MLSize() spectral
//     projections each to build.
//
// Interaction lists, the DAG and the batch descriptors are recomputed from
// the revived trees (deterministic and cheap relative to what is skipped).
// Inline-ensemble plans are not spilled: their geometry is not re-derivable
// from a spec and would bloat records for a workload that is by definition
// not seed-replayable.
//
// Framing follows the amt parcel codec discipline (internal/amt/codec.go):
// a fixed header with magic, version, payload length and a CRC32 over the
// payload, then the payload. The decoder errors — never panics — on a
// truncated, corrupted, oversized or version-skewed record; Load skips such
// records (counted, surfaced as store_corrupt in /metrics) rather than
// refusing to start.
//
// Record header (little endian):
//
//	off  size  field
//	0    4     magic "DMMP"
//	4    1     store version
//	5    3     reserved (zero)
//	8    8     payload length
//	16   4     CRC32 (IEEE) over the payload
//	20   ...   payload

const (
	storeMagic = 0x444d4d50 // "DMMP"
	// storeVersion is the payload layout. Version 2 gives every operator
	// table its plane-wave rule fingerprint; a record of any other version
	// is skipped and its plan rebuilt.
	storeVersion = 2
	// storeHeaderSize is the fixed record header length in bytes.
	storeHeaderSize = 20
	// maxStoreRecord bounds a record so a corrupted length field cannot
	// make recovery allocate absurd buffers.
	maxStoreRecord = 1 << 30 // 1 GiB
)

// Store decode errors.
var (
	errStoreMagic    = errors.New("serve: bad store record magic")
	errStoreVersion  = errors.New("serve: store record version mismatch")
	errStoreChecksum = errors.New("serve: store record checksum mismatch")
	errStoreTooBig   = errors.New("serve: store record exceeds size limit")
	errStoreShort    = errors.New("serve: truncated store record")
)

var le = binary.LittleEndian

// Store is a directory of plan records, one file per plan key.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a plan store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: opening plan store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// PlanRecord is the spilled state of one warm plan.
type PlanRecord struct {
	Key  string
	Spec Request // plan-determining spec fields only
	// Threshold is the refinement threshold the skeletons were built with,
	// so a later change of the cost table never invalidates the record;
	// Spec.Threshold keeps the request's (0 = tuned) so the key still matches.
	Threshold int
	Source    tree.Skeleton
	Target    tree.Skeleton
	Ops       []kernel.OperatorTable
}

// planSpec describes one plan: its request's plan-determining fields and the
// threshold its trees were built with. It is a record's JSON section and,
// with ChargeSeed and DeadlineMS (rank 0's time budget) set, the job payload
// every worker rank builds rank 0's plan from.
type planSpec struct {
	Request
	ResolvedThreshold int `json:"resolved_threshold,omitempty"`
}

// specOf captures a normalized request's plan-defining fields and the
// threshold its plan resolved (the request's may be 0, "choose for me").
func specOf(req *Request, plan *core.Plan) planSpec {
	return planSpec{
		Request: Request{
			Distribution: req.Distribution,
			N:            req.N,
			Seed:         req.Seed,
			Kernel:       req.Kernel,
			Lambda:       req.Lambda,
			Digits:       req.Digits,
			Threshold:    req.Threshold,
		},
		ResolvedThreshold: plan.Threshold(),
	}
}

// resolve returns the normalized request a plan is built from and the
// threshold to build it with, never tuned: the resolved one, else the
// request's, else the paper's (an unset threshold before the tuner existed).
// Inline points or charges cannot be regenerated from a spec: refused.
func (ps planSpec) resolve() (Request, int, error) {
	req := ps.Request
	if len(req.Sources) > 0 || len(req.Targets) > 0 || len(req.Charges) > 0 {
		return req, 0, errors.New("plan spec carries inline points or charges")
	}
	if err := req.normalize(Config{}); err != nil {
		return req, 0, err
	}
	thr := ps.ResolvedThreshold
	if thr < 0 {
		return req, 0, fmt.Errorf("resolved threshold %d", thr)
	}
	if thr == 0 {
		thr = req.Threshold
	}
	if thr == 0 {
		thr = tree.Threshold
	}
	return req, thr, nil
}

// recordPath names the record file for a plan key: a stable content hash of
// the key, so keys with path-hostile characters spill safely.
func (st *Store) recordPath(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(st.dir, fmt.Sprintf("%016x.plan", h.Sum64()))
}

// Put writes one record atomically (temp file + rename) and returns the
// record size in bytes.
func (st *Store) Put(rec *PlanRecord) (int64, error) {
	payload := appendRecord(nil, rec)
	buf := make([]byte, storeHeaderSize, storeHeaderSize+len(payload))
	le.PutUint32(buf[0:], storeMagic)
	buf[4] = storeVersion
	le.PutUint64(buf[8:], uint64(len(payload)))
	le.PutUint32(buf[16:], crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)

	path := st.recordPath(rec.Key)
	tmp, err := os.CreateTemp(st.dir, ".plan-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// Get reads the record of one plan key: nil without an error when the store
// holds none (or holds another key's under the same file name), an error
// when the record is there and unreadable.
func (st *Store) Get(key string) (*PlanRecord, error) {
	rec, err := readRecordFile(st.recordPath(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if rec.Key != key {
		return nil, nil
	}
	return rec, nil
}

// Load reads the store's records one at a time, handing each readable one
// to f, and stops early when f returns false: Load itself holds one record
// at a time. Corrupt, truncated or version-skewed records are skipped
// and counted, never fatal; only a directory-level failure returns an
// error.
func (st *Store) Load(f func(*PlanRecord) bool) (corrupt int, err error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0, fmt.Errorf("serve: reading plan store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".plan") {
			continue
		}
		rec, rerr := readRecordFile(filepath.Join(st.dir, e.Name()))
		if rerr != nil {
			corrupt++
			continue
		}
		if !f(rec) {
			break
		}
	}
	return corrupt, nil
}

func readRecordFile(path string) (*PlanRecord, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < storeHeaderSize {
		return nil, errStoreShort
	}
	if le.Uint32(buf[0:]) != storeMagic {
		return nil, errStoreMagic
	}
	if buf[4] != storeVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", errStoreVersion, buf[4], storeVersion)
	}
	plen := le.Uint64(buf[8:])
	if plen > maxStoreRecord {
		return nil, fmt.Errorf("%w: %d bytes", errStoreTooBig, plen)
	}
	if uint64(len(buf)-storeHeaderSize) != plen {
		return nil, errStoreShort
	}
	payload := buf[storeHeaderSize:]
	if crc32.ChecksumIEEE(payload) != le.Uint32(buf[16:]) {
		return nil, errStoreChecksum
	}
	return decodeRecord(payload)
}

// --- payload codec -------------------------------------------------------

// appendRecord encodes the record payload: the spec as JSON (small, schema-
// tolerant), then the two tree skeletons and the operator tables in packed
// little-endian binary (bulk data).
func appendRecord(dst []byte, rec *PlanRecord) []byte {
	dst = amt.AppendBytes(dst, []byte(rec.Key))
	spec, _ := json.Marshal(planSpec{Request: rec.Spec, ResolvedThreshold: rec.Threshold})
	dst = amt.AppendBytes(dst, spec)
	dst = appendSkeleton(dst, rec.Source)
	dst = appendSkeleton(dst, rec.Target)
	dst = le.AppendUint32(dst, uint32(len(rec.Ops)))
	for _, op := range rec.Ops {
		dst = append(dst, op.Kind)
		dst = le.AppendUint64(dst, op.SideBits)
		dst = append(dst, byte(op.DX), byte(op.DY), byte(op.DZ))
		dst = le.AppendUint64(dst, op.Rule)
		dst = le.AppendUint32(dst, uint32(len(op.Mx)))
		dst = amt.AppendC128s(dst, op.Mx)
	}
	return dst
}

func appendSkeleton(dst []byte, sk tree.Skeleton) []byte {
	dst = amt.AppendF64s(dst, sk.Domain.Low.X, sk.Domain.Low.Y, sk.Domain.Low.Z, sk.Domain.Side)
	dst = le.AppendUint32(dst, uint32(len(sk.Perm)))
	for _, p := range sk.Perm {
		dst = le.AppendUint32(dst, uint32(p))
	}
	dst = le.AppendUint32(dst, uint32(len(sk.Boxes)))
	for _, b := range sk.Boxes {
		dst = append(dst, byte(b.Index.Level))
		dst = le.AppendUint32(dst, uint32(b.Index.X))
		dst = le.AppendUint32(dst, uint32(b.Index.Y))
		dst = le.AppendUint32(dst, uint32(b.Index.Z))
		dst = le.AppendUint32(dst, uint32(b.Lo))
		dst = le.AppendUint32(dst, uint32(b.Hi))
	}
	return dst
}

// Every count below is checked against the bytes that remain before
// anything is sized from it (amt.Cursor.Count), so a corrupted count cannot
// drive a huge allocation.
func decodeRecord(payload []byte) (*PlanRecord, error) {
	r := amt.NewCursor(payload)
	rec := &PlanRecord{Key: string(r.Bytes())}
	specJSON := r.Bytes()
	if !r.Short() {
		var spec planSpec
		if err := json.Unmarshal(specJSON, &spec); err != nil {
			return nil, fmt.Errorf("serve: store record spec: %w", err)
		}
		rec.Spec, rec.Threshold = spec.Request, spec.ResolvedThreshold
	}
	rec.Source = readSkeleton(&r)
	rec.Target = readSkeleton(&r)
	for i, nOps := 0, r.Count(1+8+3+8+4); i < nOps && !r.Short(); i++ {
		op := kernel.OperatorTable{
			Kind:     r.U8(),
			SideBits: r.U64(),
			DX:       int8(r.U8()),
			DY:       int8(r.U8()),
			DZ:       int8(r.U8()),
			Rule:     r.U64(),
		}
		op.Mx = make([]complex128, r.Count(16))
		r.C128s(op.Mx)
		rec.Ops = append(rec.Ops, op)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("serve: store record: %w", err)
	}
	if rec.Key == "" {
		return nil, errors.New("serve: store record has an empty plan key")
	}
	return rec, nil
}

func readSkeleton(r *amt.Cursor) tree.Skeleton {
	var sk tree.Skeleton
	sk.Domain.Low.X = r.F64()
	sk.Domain.Low.Y = r.F64()
	sk.Domain.Low.Z = r.F64()
	sk.Domain.Side = r.F64()
	sk.Perm = make([]int, r.Count(4))
	for i := range sk.Perm {
		sk.Perm[i] = int(r.U32())
	}
	sk.Boxes = make([]tree.SkeletonBox, r.Count(1+4*5))
	for i := range sk.Boxes {
		b := &sk.Boxes[i]
		b.Index.Level = int8(r.U8())
		b.Index.X = int32(r.U32())
		b.Index.Y = int32(r.U32())
		b.Index.Z = int32(r.U32())
		b.Lo = int(r.U32())
		b.Hi = int(r.U32())
	}
	return sk
}

// --- record <-> plan -----------------------------------------------------

// recordFor snapshots a built, warmed plan into its spilled form.
func recordFor(req *Request, plan *core.Plan) *PlanRecord {
	spec := specOf(req, plan)
	return &PlanRecord{
		Key:       req.planKey(),
		Spec:      spec.Request,
		Threshold: spec.ResolvedThreshold,
		Source:    plan.Source.Skeleton(),
		Target:    plan.Target.Skeleton(),
		Ops:       plan.Kernel.ExportOperators(),
	}
}

// rebuild revives the record into a built plan: points regenerate from the
// spec seed, the trees rise from their skeletons without re-partitioning,
// the spilled dense operators seed the kernel cache, and only the
// (deterministic, comparatively cheap) lists + DAG assembly reruns.
func (rec *PlanRecord) rebuild() (*core.Plan, error) {
	spec, thr, err := planSpec{Request: rec.Spec, ResolvedThreshold: rec.Threshold}.resolve()
	if err != nil {
		return nil, fmt.Errorf("serve: store record spec: %w", err)
	}
	if got := spec.planKey(); got != rec.Key {
		return nil, fmt.Errorf("serve: store record key %q does not match its spec (%q)", rec.Key, got)
	}
	srcPts, tgtPts := spec.ensembles()
	src, err := tree.FromSkeleton(srcPts, rec.Source)
	if err != nil {
		return nil, fmt.Errorf("serve: store record source tree: %w", err)
	}
	tgt, err := tree.FromSkeleton(tgtPts, rec.Target)
	if err != nil {
		return nil, fmt.Errorf("serve: store record target tree: %w", err)
	}
	k := spec.newKernel()
	k.ImportOperators(rec.Ops)
	plan, err := core.NewPlanFromTrees(src, tgt, k, core.Options{Threshold: thr})
	if err != nil {
		return nil, fmt.Errorf("serve: store record plan: %w", err)
	}
	return plan, nil
}

// --- server integration --------------------------------------------------

// UseStore attaches an opened plan store: cold builds spill their warmed
// state after the first successful evaluation, and RecoverFromStore revives
// spilled plans into the cache. Attach before serving.
func (s *Server) UseStore(st *Store) { s.store = st }

// Store returns the attached plan store (nil without one).
func (s *Server) Store() *Store { return s.store }

// RecoverFromStore revives the attached store's records into the cache, one
// record at a time, until the cache is full, so the first request on a
// previously-warm key is a cache hit with zero plan rebuilds. The keys it
// has no room for are revived on their first request instead
// (planEntry.ensureBuilt). Unreadable records — corrupt, truncated,
// version-skewed, or no longer revivable — are skipped and counted
// (store_corrupt in /metrics), never fatal.
func (s *Server) RecoverFromStore() (recovered, skipped int, err error) {
	if s.store == nil {
		return 0, 0, errors.New("serve: no store attached")
	}
	corrupt, err := s.store.Load(func(rec *PlanRecord) bool {
		plan, rerr := rec.rebuild()
		if rerr != nil {
			skipped++
			return true
		}
		e := &planEntry{key: rec.Key, fromStore: true}
		e.build.Do(func() { e.plan = plan })
		s.cache.put(rec.Key, e)
		recovered++
		return s.cache.len() < s.cfg.CacheSize
	})
	if err != nil {
		return 0, 0, err
	}
	skipped += corrupt
	s.metrics.count(func(m *MetricsSnapshot) {
		m.StoreCorrupt += int64(skipped)
		m.StoreRecovered += int64(recovered)
	})
	return recovered, skipped, nil
}

// persistPlan spills a freshly built plan's warm state after its first
// successful evaluation (by then the dense operator tables the evaluation
// touched all exist). One attempt per entry; failures are counted, not
// retried. Caller must hold entry.mu.
//
//dashmm:locked planEntry.mu — documented precondition: evaluate calls persistPlan inside the entry's critical section.
func (s *Server) persistPlan(req *Request, entry *planEntry) {
	if s.store == nil || entry.stored || entry.fromStore || len(req.Sources) > 0 {
		return
	}
	entry.stored = true
	n, err := s.store.Put(recordFor(req, entry.plan))
	s.metrics.count(func(m *MetricsSnapshot) {
		if err != nil {
			m.StoreFailed++
			return
		}
		m.StoreWrites++
		m.StoreBytes += n
	})
}
