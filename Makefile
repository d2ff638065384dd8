# Standard entry points for the repro repository. Everything uses the Go
# toolchain only — no external dependencies.

GO ?= go

.PHONY: build test purego race vet lint escape-gate fuzz-smoke fmt-check generate-check lines asm-listing bench-check serve-smoke serve-chaos chaos chaos-short chaos-crash dist-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The portable pair loop, dense kernel and point operators, and the tests
# whose fixtures depend on their prices, on a box whose CPU binds vector
# ones (internal/kernel/p2p.go, dense.go, point.go): the purego tag drops the
# assembly, so every kernel binds and prices the Go loops. A subset that
# keeps it to a few minutes: pair loops, point operators (against the
# Legendre oracle too), dense kernel, tuner, oracle (metamorphic and
# realness), degenerate-input, batched and accuracy gates, the daemon's
# admission.
purego:
	$(GO) test -tags purego -run 'Pair|P2P|S2T|Point|Yukawa|Dense|Tuner|Oracle|Realness|Degenerate|Batched|Accuracy|RefusesPlan|JobSpec|SmallRequest' \
		./internal/kernel ./internal/core ./internal/serve

# The scheduler, executor, server, distributed driver and tracer are the
# concurrency-touching packages, the kernel's table cache, lock-free shift
# table and Prepare are raced by its own tests, and the direct sum fans out
# over goroutines of its own (baseline.Direct); run them under the race
# detector (the remaining packages start no goroutine, and the full tree
# under -race is slow on small machines without adding coverage).
race:
	$(GO) test -race -timeout 25m ./internal/amt ./internal/core ./internal/kernel ./internal/serve ./internal/trace ./internal/baseline

# bench/ is a module of its own that imports internal/...: vetting it here
# makes deleting a name the benchmark uses fail in ci, not in the pipeline.
# The arm64 pass cross-compiles offline from GOROOT: a platform file
# without its non-amd64 counterpart fails here, not on someone's laptop.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	GOARCH=arm64 $(GO) vet ./...

# The benchmark's own smoke-sized tests (~40 s), including its direct-sum
# check of every workload's output: a kernel change meets the checker the
# pipeline will apply before it leaves the machine.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The three project-specific checkers: lockguard, determinism, lockorder
# (see DESIGN.md, "Invariant catalog"; EXPERIMENTS.md's mutation table says
# what each catches that -race, vet and the tests miss). Exits non-zero on
# any finding.
lint:
	$(GO) run ./cmd/dashmm-lint ./...

# Compiler-backed //dashmm:noalloc verification: every annotated function
# must be free of `go build -gcflags=-m` heap escapes.
escape-gate:
	$(GO) run ./cmd/dashmm-lint -escape ./...

# Native-fuzz every decode surface for 20s each: the wire frame codec, the
# control-plane payloads inside it (join preamble, membership), the
# data-plane parcel inside it (an expansion's or a gathered target's), the
# job payload (a plan spec, the JSON section of a plan-store record), and the
# persistent plan-store record; and the Cartesian Y_n^m evaluator against its Legendre oracle on
# arbitrary coordinates, and the vector point operators against the
# portable ones on arbitrary coordinates, centres and charges, and every pair
# loop this CPU runs — float64 ones against the portable loop, float32 ones
# against a float32 reference and their float64 twins — on arbitrary near
# fields; and every dense kernel against the complex formula on arbitrary
# table shapes and right-hand-side counts. The seed corpora
# live in testdata/fuzz/ and replay under plain `go test` too.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 20s ./internal/amt
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeControl$$' -fuzztime 20s ./internal/amt
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeParcel$$' -fuzztime 20s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 20s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzStoreLoad$$' -fuzztime 20s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzYnmCartesian$$' -fuzztime 20s ./internal/sphharm
	$(GO) test -run '^$$' -fuzz '^FuzzPointBlock$$' -fuzztime 20s ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzPairLoops$$' -fuzztime 20s ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzDenseApply$$' -fuzztime 20s ./internal/kernel

# Fail if any file needs gofmt; prints the offending files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The checked-in Laplace plane-wave rules (internal/kernel/pwrule_laplace.go)
# and the generated vector assembly (internal/kernel/asmgen's p2p_amd64.s and
# point_amd64.s) must be what the generators make: regenerate them and fail
# on any byte of difference. (The kernel's tests compare the rules by value,
# which also holds on a platform that rounds the generator's arithmetic
# differently; asmgen's own test compares the assembly byte for byte.)
GENERATED = internal/kernel/pwrule_laplace.go internal/kernel/p2p_amd64.s internal/kernel/point_amd64.s
generate-check:
	$(GO) generate ./internal/kernel
	git diff --exit-code -- $(GENERATED)

# Non-test, hand-written .go lines of the runtime packages — the scheduler
# and wire (amt), the executor and fabric (core), the daemon (serve) — and
# their sum, then the //lint:ignore suppressions in those files: the
# code-size and suppression rows ROADMAP tracks, from one command.
# The kernel and DAG packages, which the executor drives, follow outside the
# total, so the total's series stays comparable, then the kernel's
# hand-written assembly (*.s and any *.h they include) as a row of its own,
# then the assembly generator's non-test Go lines (internal/kernel/asmgen:
# the descriptions the generated assembly comes from), then the commands
# and the examples (every program under cmd/ and examples/, one row each).
# No row counts a file whose first line is Go's generated-code
# marker (`// Code generated ... DO NOT EDIT.`), such as the kernel's
# plane-wave rules in internal/kernel/pwrule_laplace.go and the generated
# assembly.
LINES_PKGS = internal/amt internal/core internal/serve
LINES_MORE = internal/kernel internal/dag
lines:
	@src() { for f in $$1/*.go; do case $$f in *_test.go) continue;; esac; \
		head -1 $$f | grep -q '^// Code generated .* DO NOT EDIT\.$$' || echo $$f; done; }; \
	total=0; ignores=0; for p in $(LINES_PKGS); do \
		files=$$(src $$p); \
		n=$$(cat $$files | wc -l); \
		printf '%-16s %6d\n' $$p $$n; total=$$((total + n)); \
		ignores=$$((ignores + $$(cat $$files | grep -c '//lint:ignore'))); \
	done; printf '%-16s %6d\n' total $$total; printf '%-16s %6d\n' lint:ignore $$ignores; \
	for p in $(LINES_MORE); do \
		printf '%-16s %6d\n' $$p $$(cat $$(src $$p) | wc -l); \
	done; \
	printf '%-16s %6d\n' 'kernel asm' $$(cat $$(for f in internal/kernel/*.s internal/kernel/*.h; do [ -e $$f ] || continue; \
		head -1 $$f | grep -q '^// Code generated .* DO NOT EDIT\.$$' || echo $$f; done) | wc -l); \
	printf '%-16s %6d\n' 'kernel gen' $$(cat $$(src internal/kernel/asmgen) | wc -l); \
	for p in cmd examples; do \
		printf '%-16s %6d\n' $$p $$(cat $$(for d in $$p/*/; do src $${d%/}; done) | wc -l); \
	done

# The machine code of the kernel's assembly (internal/kernel/*_amd64.s):
# for every routine and constant table, go tool asm -S's header line, hex
# bytes and relocations, without the source lines, one block per symbol
# sorted by name. Two commits' listings diff empty exactly when no
# routine's code and no table changed; an assembly change that means to
# keep its machine code (a regenerated file, a moved routine) shows it
# with one diff. Not part of ci.
asm-listing:
	@cd internal/kernel && out=$$(for f in *_amd64.s; do \
		$(GO) tool asm -S -p repro/internal/kernel -I "$$($(GO) env GOROOT)/pkg/include" \
			-D GOOS_linux -D GOARCH_amd64 -o /dev/null $$f || exit 1; \
	done) && printf '%s\n' "$$out" | \
	awk '/^[^ \t]/ { sym = $$1 } /^[^ \t]/ || /^\t(0x[0-9a-f]+ [0-9a-f][0-9a-f] |rel )/ { printf "%s %07d\t%s\n", sym, NR, $$0 }' | \
	LC_ALL=C sort -k1,1 -k2,2n | cut -f2-

# Evaluation-service smoke test: concurrent mixed requests against an
# in-process server (httptest), asserting every response is a 200 and the
# cache/coalescing/queue metrics add up, plus a goroutine-leak check.
serve-smoke:
	$(GO) test ./internal/serve -run TestServeSmoke -v -count=1 -timeout 5m

# Self-healing serve gate: a daemon with a forked worker-rank pool serves
# concurrent distributed requests while one worker is SIGKILLed mid-load.
# Every request must match the sequential reference at 1e-12 or fail closed
# as a degraded 503; afterwards the supervisor must respawn and re-admit the
# worker (generation bump in /metrics) and distributed service must resume.
serve-chaos:
	$(GO) test ./internal/serve -run TestServeChaos -v -count=1 -timeout 10m

# Chaos harness: full cube/sphere x Laplace/Yukawa evaluations by four
# in-process ranks over real unix sockets, with a fault-injecting decorator
# (drop/duplicate/reorder/slow-rank) between every rank's delivery engine
# and its socket, gated at 1e-12 against the sequential potentials.
# chaos-short keeps only the combined acceptance profile (still all four
# workloads).
chaos:
	$(GO) test ./internal/amt -run TestChaosProfiles -v -count=1 -timeout 15m

chaos-short:
	$(GO) test ./internal/amt -run TestChaosProfiles -short -count=1 -timeout 10m

# Crash-recovery chaos harness: one of the four ranks drops dead (cluster
# closed: heartbeats stop, sockets sever) at 25/50/75% of its local progress
# (plus the combined death-on-faulty-wire profile) on every workload; every
# survivor must fail naming it, and the re-run on the survivors is gated
# at 1e-12 against the sequential potentials. The full matrix is cheap
# enough to run in ci; the race job picks the crash tests up via
# ./internal/amt ./internal/core with the shrunk -short shapes.
chaos-crash:
	$(GO) test ./internal/amt -run TestChaosCrash -v -count=1 -timeout 15m

# Multi-process smoke: four real OS processes joined over unix sockets, one
# worker rank SIGKILLed at 50% of its local progress; rank 0 re-runs the
# job on the survivors, gates the gathered potentials at 1e-12 against the
# sequential evaluation and exits non-zero on any mismatch, wedge, or
# unexpected child failure. The paper's threshold keeps the re-run a
# level-3 far field (some 43k edges); the tuner's level-2 tree for these
# points has under 3k. The second line runs the same with the basic method:
# on the re-run's three ranks 24.7k of its 56k list-2 M->L edges feed a batch
# from another rank, where 98 of the advanced method's 1.2k far edges do.
dist-smoke: build
	$(GO) run ./cmd/dashmm-bench -real -n 20000 -threshold 60 -locs 4 -net unix -kill-rank 2 -kill-at 0.5
	$(GO) run ./cmd/dashmm-bench -real -n 20000 -threshold 60 -method basic -locs 4 -net unix -kill-rank 2 -kill-at 0.5

ci: build vet fmt-check generate-check lint escape-gate test purego bench-check fuzz-smoke race serve-smoke serve-chaos chaos-short chaos-crash dist-smoke
