# Tier-1: everything must build and every test must pass.
.PHONY: all test vet vet-xpdl bveq-smoke bveq-nightly bench bench-smoke chaos cover fuzz-smoke fuzz-designs fuzz-corpus race soak serve-smoke serve-soak torture-smoke torture clean

all: vet vet-xpdl bveq-smoke test

# vet-xpdl runs the XPDL static analyzer over every program in the tree:
# the built-in processor variants (which back examples/) and all .xpdl
# sources under testdata/, including the per-diagnostic fixture corpus.
# Fixtures that intentionally trigger diagnostics carry xpdlvet:expect
# annotations, so any NEW warning fails the build via -Werror.
vet-xpdl:
	go run ./cmd/xpdlvet -Werror -design all testdata/*.xpdl testdata/diag/*.xpdl

test:
	go test ./...

# vet also fails on any Go file gofmt would change, and vets and tests
# the nested benchmark module, which the root `go build ./...` skips:
# it builds against bveq.VariantTarget, designs.Processor and golden.
# The environment matches benchmark/run.sh's.
vet:
	go vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
	  echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; fi
	cd benchmark && export GOFLAGS=-mod=mod GOTOOLCHAIN=local && go vet ./... && go test ./...

# bveq-smoke runs the bounded exhaustive equivalence gate as a tier-1
# check: all five hand-written variants must earn the bounded-verified
# badge at K=2, the pinned abort-strip fixture must pass clean, and the
# same fixture with the seeded translator bug applied must be REJECTED
# with exit 9 — the gate proving it still has teeth. Runs in seconds.
# (A built binary, not `go run`: go run flattens exit codes to 1.)
BVEQ_FIXTURE := internal/designgen/testdata/bveq-abort-strip.json
BVEQ_DIR := $(or $(TMPDIR),/tmp)/xpdlvet-bveq
bveq-smoke:
	mkdir -p $(BVEQ_DIR)
	go build -o $(BVEQ_DIR)/xpdlvet ./cmd/xpdlvet
	$(BVEQ_DIR)/xpdlvet -bveq -bveq-len 2 -bveq-window 4 -design all
	$(BVEQ_DIR)/xpdlvet -bveq -bveq-len 2 -bveq-window 6 -bveq-spec $(BVEQ_FIXTURE)
	$(BVEQ_DIR)/xpdlvet -bveq -bveq-len 2 -bveq-window 6 -bveq-spec $(BVEQ_FIXTURE) \
	  -bveq-corrupt abort-strip >/dev/null 2>$(BVEQ_DIR)/corrupt.log; \
	  status=$$?; test $$status -eq 9 || \
	  { echo "bveq-smoke: expected exit 9 from the corrupted fixture, got $$status"; \
	    cat $(BVEQ_DIR)/corrupt.log; exit 1; }
	@echo "bveq-smoke: five variants verified, seeded bug rejected"

# bveq-nightly is the deep sweep: K=4 over every variant with the full
# default interrupt window, JSON badges kept as an artifact.
bveq-nightly:
	go run ./cmd/xpdlvet -bveq -bveq-len 4 -design all -json > bveq-report.json

# cover runs the whole suite with statement coverage over internal/...
# and fails if the aggregate drops below COVER_MIN percent. The floor
# sits a few points under the current figure (~83%) so it trips on a
# real regression — a new untested subsystem — not on noise.
COVER_MIN = 80.0
cover:
	go test -count=1 -coverprofile=cover.out -coverpkg=./internal/... ./...
	@go tool cover -func=cover.out | tail -1
	@go tool cover -func=cover.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3 + 0 < min) { \
		printf "coverage %.1f%% is below the %.1f%% floor\n", $$3, min; exit 1 } }'

# chaos runs the adversarial-timing differential suite on its own
# (it is part of `go test ./...` too; this target isolates it).
chaos:
	go test -run TestChaosDifferential -v ./internal/sim/

# fuzz-smoke runs each native fuzz target briefly — enough to catch
# newly introduced panics in the assembler and the PDL parser, and
# expression disagreements between the RTL evaluator and internal/val
# or between the simulator engines, without turning CI into a fuzzing
# farm.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzAssemble -fuzztime=10s ./internal/asm/
	go test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/pdl/parser/
	go test -run='^$$' -fuzz=FuzzCheck -fuzztime=10s ./internal/check/
	go test -run='^$$' -fuzz=FuzzRTLExpr -fuzztime=10s ./internal/rtl/
	go test -run='^$$' -fuzz=FuzzEngineExpr -fuzztime=10s ./internal/sim/

# fuzz-designs is the design-space fuzzing smoke: a fixed-seed xpdlfuzz
# campaign over 500 generated (design, program) pairs through the full
# gauntlet — parse, check, translate, three engines vs the golden model,
# with chaos / save-restore / cosim / checker mutants sampled in. Pure
# function of its flags, so CI failures reproduce exactly; exit 8 means
# a counterexample (bundle written to testdata/designfuzz/).
fuzz-designs:
	go run ./cmd/xpdlfuzz -n 500 -seed 1 -shrink -out testdata/designfuzz -q

# fuzz-corpus refreshes the generator-seeded corpora for the FuzzParse
# and FuzzCheck native fuzz targets: realistic whole-pipeline sources
# land in each package's testdata/fuzz/<Target>/ directory, where Go
# replays them during ordinary `go test` runs too. Commit the result.
fuzz-corpus:
	go run ./cmd/xpdlfuzz -corpus internal/pdl/parser/testdata/fuzz/FuzzParse -n 24 -seed 100
	go run ./cmd/xpdlfuzz -corpus internal/check/testdata/fuzz/FuzzCheck -n 24 -seed 100
	go test -run Fuzz ./internal/pdl/parser/ ./internal/check/

# race runs the concurrency-bearing packages under the race detector
# with caching disabled — checkpoint/resume, the daemon's worker pool,
# and the bveq and design-fuzz workers whose machines share one plan
# across goroutines — the focused counterpart of CI's tree-wide
# `go test -race ./...`.
race:
	go test -race -count=1 ./internal/sim/ ./internal/cosim/ ./internal/snap/ \
		./internal/fault/ ./internal/xpdld/ \
		./internal/bveq/ ./internal/designgen/

# soak proves the kill/resume story on the real binary: a chaos run is
# cut short by -timeout (exit 7, resumable snapshot written), resumed
# from that snapshot, and must reach the same checksum and pass the
# same golden cross-check as the uninterrupted run. A -cosim -chaos run
# goes through the same cut and resume, and must report the same
# lockstep cycle and retirement counts as its uninterrupted run.
SOAK_DIR := $(or $(TMPDIR),/tmp)/xpdlsim-soak
soak:
	rm -rf $(SOAK_DIR) && mkdir -p $(SOAK_DIR)
	go build -o $(SOAK_DIR)/xpdlsim ./cmd/xpdlsim
	printf '        li   t0, 0\n        li   t1, 0\n        li   t2, 20000\nloop:   add  t1, t1, t0\n        addi t0, t0, 1\n        bne  t0, t2, loop\n        sw   t1, 0(zero)\n        ebreak\n' > $(SOAK_DIR)/soak.s
	$(SOAK_DIR)/xpdlsim -design all -chaos -seed 7 $(SOAK_DIR)/soak.s | tee $(SOAK_DIR)/straight.out
	$(SOAK_DIR)/xpdlsim -design all -chaos -seed 7 -timeout 10ms \
	  -checkpoint $(SOAK_DIR)/soak.snap $(SOAK_DIR)/soak.s; \
	  status=$$?; test $$status -eq 7 || \
	  { echo "soak: expected exit 7 from the timed-out run, got $$status"; exit 1; }
	test -f $(SOAK_DIR)/soak.snap
	$(SOAK_DIR)/xpdlsim -design all -chaos -seed 7 -resume $(SOAK_DIR)/soak.snap $(SOAK_DIR)/soak.s | tee $(SOAK_DIR)/resumed.out
	grep -qxF "$$(grep '^dmem\[0\]' $(SOAK_DIR)/straight.out)" $(SOAK_DIR)/resumed.out
	grep -q 'golden model cross-check: architectural state identical' $(SOAK_DIR)/resumed.out
	$(SOAK_DIR)/xpdlsim -design all -cosim -chaos -seed 7 $(SOAK_DIR)/soak.s | tee $(SOAK_DIR)/cosim-straight.out
	$(SOAK_DIR)/xpdlsim -design all -cosim -chaos -seed 7 -timeout 10ms \
	  -checkpoint $(SOAK_DIR)/cosim.snap $(SOAK_DIR)/soak.s; \
	  status=$$?; test $$status -eq 7 || \
	  { echo "soak: expected exit 7 from the timed-out cosim run, got $$status"; exit 1; }
	test -f $(SOAK_DIR)/cosim.snap
	$(SOAK_DIR)/xpdlsim -design all -cosim -chaos -seed 7 -resume $(SOAK_DIR)/cosim.snap $(SOAK_DIR)/soak.s | tee $(SOAK_DIR)/cosim-resumed.out
	line=$$(grep 'RTL cosimulation identical' $(SOAK_DIR)/cosim-straight.out) && \
	  grep -qxF "$$line" $(SOAK_DIR)/cosim-resumed.out
	@echo "soak: killed run and killed cosim run resumed to identical results"
	$(MAKE) serve-soak SOAK_SEEDS=1,2,3,4 SOAK_CYCLES=1

# serve-smoke boots the real daemon, pushes one job of every kind
# through xpdlctl, scrapes /metrics, and shuts the daemon down cleanly
# with SIGTERM — the tier-1 proof that the service stack (HTTP API,
# worker pool, compile cache, checkpointing, CLI) works end to end on
# the built binaries.
SERVE_DIR := $(or $(TMPDIR),/tmp)/xpdld-smoke
serve-smoke:
	rm -rf $(SERVE_DIR) && mkdir -p $(SERVE_DIR)
	go build -o $(SERVE_DIR)/xpdld ./cmd/xpdld
	go build -o $(SERVE_DIR)/xpdlctl ./cmd/xpdlctl
	printf '        li   t0, 0\n        li   t1, 0\n        li   t2, 20000\nloop:   add  t1, t1, t0\n        addi t0, t0, 1\n        bne  t0, t2, loop\n        sw   t1, 0(zero)\n        ebreak\n' > $(SERVE_DIR)/loop.s
	$(SERVE_DIR)/xpdld -addr 127.0.0.1:0 -state $(SERVE_DIR)/state 2> $(SERVE_DIR)/xpdld.log & \
	  pid=$$!; \
	  for i in $$(seq 1 100); do test -s $(SERVE_DIR)/state/xpdld.addr && break; sleep 0.1; done && \
	  test -s $(SERVE_DIR)/state/xpdld.addr && \
	  addr=$$(cat $(SERVE_DIR)/state/xpdld.addr) && \
	  $(SERVE_DIR)/xpdlctl -addr $$addr submit -kind compile -design all -wait > $(SERVE_DIR)/compile.json && \
	  $(SERVE_DIR)/xpdlctl -addr $$addr submit -kind simulate -design base -workload fib -wait > $(SERVE_DIR)/simulate.json && \
	  $(SERVE_DIR)/xpdlctl -addr $$addr submit -kind chaos -design all -seed 7 -asm $(SERVE_DIR)/loop.s -wait > $(SERVE_DIR)/chaos.json && \
	  $(SERVE_DIR)/xpdlctl -addr $$addr submit -kind cosim -design base -workload fib -wait > $(SERVE_DIR)/cosim.json && \
	  $(SERVE_DIR)/xpdlctl -addr $$addr submit -kind bveq -design base -bveq-len 1 -wait > $(SERVE_DIR)/bveq.json && \
	  $(SERVE_DIR)/xpdlctl -addr $$addr metrics > $(SERVE_DIR)/metrics.txt && \
	  grep -q 'xpdld_jobs{state="done"} 5' $(SERVE_DIR)/metrics.txt && \
	  grep -q '^xpdld_compiles_total' $(SERVE_DIR)/metrics.txt && \
	  grep -q '"golden_ok": true' $(SERVE_DIR)/chaos.json && \
	  grep -q '"verified": true' $(SERVE_DIR)/bveq.json && \
	  kill -TERM $$pid && wait $$pid \
	  || { status=$$?; cat $(SERVE_DIR)/xpdld.log; kill -9 $$pid 2>/dev/null; exit $$status; }
	grep -q 'clean shutdown' $(SERVE_DIR)/xpdld.log
	@echo "serve-smoke: five kinds served via xpdlctl, metrics scraped, clean shutdown"

# serve-soak is the daemon-grade kill/resume soak: the real xpdld
# binary is SIGKILLed mid-job at random checkpoints and restarted,
# repeatedly, and every job of every kind must still end with a report
# byte-identical to an uninterrupted run. SOAK_SEEDS scales the chaos
# job mix; SOAK_CYCLES the number of SIGKILL/restart rounds.
SOAK_SEEDS ?= 1,2,3,4,5,6,7,8
SOAK_CYCLES ?= 3
serve-soak:
	XPDLD_KILL_SEEDS=$(SOAK_SEEDS) XPDLD_KILL_CYCLES=$(SOAK_CYCLES) \
	  go test -run TestDaemonKillResume -count=1 -v -timeout 60m ./internal/xpdld/

# torture-smoke is the tier-1 storage-fault gate: the in-process daemon
# over a store injecting the Default ENOSPC/EIO/short-write/torn-rename
# mix, across three fixed seeds — every job must end done with a report
# byte-identical to a fault-free run, or failed with a typed store
# error, and a clean restart must sweep all crash residue. Seconds, not
# minutes: the deep version is `make torture`.
torture-smoke:
	go test -run TestStorageFaultStorm -count=1 ./internal/xpdld/

# torture is the nightly full-strength run: the real xpdld binary with
# -fault-seed, SIGKILLed mid-storm, clients retrying with backoff, a
# crash-looping job quarantined and force-resumed — across 8 fault
# seeds. TORTURE_DIR keeps the state directories for artifact upload.
TORTURE_SEEDS ?= 1,2,3,4,5,6,7,8
TORTURE_KILLS ?= 4
torture:
	XPDLD_TORTURE_SEEDS=$(TORTURE_SEEDS) XPDLD_TORTURE_KILLS=$(TORTURE_KILLS) \
	  XPDLD_TORTURE_DIR=$(TORTURE_DIR) \
	  go test -run TestDaemonTorture -count=1 -v -timeout 60m ./internal/xpdld/

# bench runs the repo benchmark (benchmark/run.sh, 25 s per workload,
# seed 4242) on kernels, verify and service, and records the git
# revision, the seed and each workload's final JSON line (its checked
# end-to-end metrics) in BENCH.json, the committed snapshot; rerun
# `make bench` to refresh it. BENCH_pr1.json (pre-VM) and BENCH_pr6.json
# (go test -bench microbenchmarks) are frozen historical snapshots.
bench:
	{ printf '{"git":"%s","seed":4242,"workloads":{' "$$(git describe --always --dirty --abbrev=40)" && \
	  sep= && for w in kernels verify service; do \
	    out=$$(bash benchmark/run.sh --workload $$w --seed 4242 --seconds 25) && \
	    line=$$(printf '%s\n' "$$out" | tail -n 1) && test -n "$$line" && \
	    printf '%s"%s":%s' "$$sep" $$w "$$line" && sep=, || exit 1; \
	  done && printf '}}\n'; } > BENCH.json.tmp && mv BENCH.json.tmp BENCH.json

# bench-smoke is the cheap CI-shaped pass: every Go benchmark exactly
# once, with allocation stats — it proves the whole suite still runs,
# in seconds.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# clean removes what the build and test targets leave behind; the
# committed BENCH*.json snapshots are not build output.
clean:
	rm -f cover.out bveq-report.json BENCH.json.tmp
