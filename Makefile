GO ?= go

.PHONY: build test check static bench clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# static is the analysis gate on its own: gofmt (no unformatted files),
# go vet (whose asmdecl pass checks the amd64 assembly against its Go
# declarations), go vet and go build for arm64, so the portable code
# that replaces the assembly on other GOARCHes compiles and vets too,
# and a scan of the arm64 assembly listing of every package for fused
# multiply-adds (FMADDD, FMSUBD, FNMADDD, FNMSUBD): Go may fuse x*y + z
# on arm64 but never on amd64, so a fused product renders different
# pixels, steps different fields or models different times and power
# there (wrap the product in float64() to round it). The listing is one
# go build of ./... (a few seconds with a warm cache; with several
# packages go build writes no binaries), and the scan fails on an empty
# listing.
# Runs in under a minute once the build cache is warm; use it as the
# fast pre-commit check.
static:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./... 2>&1) || { echo "$$asm"; exit 1; }; \
	if ! echo "$$asm" | grep -q 'STEXT'; then \
		echo "no arm64 assembly listing"; exit 1; fi; \
	fma=$$(echo "$$asm" | grep -E 'FN?M(ADD|SUB)D[[:space:]]'); if [ -n "$$fma" ]; then \
		echo "fused multiply-add on arm64:"; echo "$$fma"; exit 1; fi

# check is the full pre-merge gate: the static-analysis gate, build
# (library, CLI, daemon, and examples), vet and tests of the perfbench
# module built against this checkout (it has its own go.mod, so
# ./... above does not reach it, and a facade change could otherwise
# break the benchmark unnoticed), the test suite under the race
# detector (including the greenvizd API tests), the daemon smoke test
# (builds the real binary, submits fig4 over HTTP, and diffs the served
# report against the committed golden digest), the golden-output
# regression suites (run without race — the full experiment suite and
# the campaign report golden are infeasible under the detector, so
# they are skipped there and must run here explicitly), the viz,
# deflate, heat and ocean tests at GOARCH=386, which run the portable
# code that stands in for the amd64 assembly (the render fill's row
# loop, the SWAR row filter, the scalar Adler-32 and the solvers'
# stencil row loops), and the checkpoint, storage and sim tests there
# too, where int is 32 bits (a checkpoint header's grid size must not
# overflow it), and short fuzz passes over the checkpoint
# decoder, the PNG encoder, the PNG encoder's Adler-32 (against
# hash/adler32), the render fill's row kernel, the heat sweep's and
# the ocean momentum and continuity row kernels (each against its
# portable loop), the job-spec decoder, the campaign-spec decoder and
# expander, the deflate port (against compress/flate), the GET /v1/jobs
# cursor, the result-store record decoder, the storage range set's
# Add, Remove, Fill, Take and TakeFrom (against the flat reference) and
# the page cache's clean and dirty sets under decoded Write, Read, Sync,
# SyncRange, DropCaches, Invalidate and Advance sequences (against a
# flat set of resident ranges), seeds plus 10s of mutation each.
check: static
	$(GO) build ./...
	$(GO) build ./examples/...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race -timeout 45m ./...
	$(GO) test -run '^TestDaemonSmoke$$' -timeout 10m ./cmd/greenvizd
	$(GO) test -run '^TestGolden' -timeout 30m ./internal/experiments
	$(GO) test -run '^TestGoldenCampaignReport$$' -timeout 10m ./internal/campaign
	GOARCH=386 $(GO) test ./internal/viz ./internal/deflate ./internal/heat ./internal/ocean \
		./internal/checkpoint ./internal/storage ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePrefix$$' -fuzztime 10s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzEncodePNG$$' -fuzztime 10s ./internal/viz
	$(GO) test -run '^$$' -fuzz '^FuzzAdler32$$' -fuzztime 10s ./internal/viz
	$(GO) test -run '^$$' -fuzz '^FuzzFillRow$$' -fuzztime 10s ./internal/viz
	$(GO) test -run '^$$' -fuzz '^FuzzSweepRow$$' -fuzztime 10s ./internal/heat
	$(GO) test -run '^$$' -fuzz '^FuzzOceanRows$$' -fuzztime 10s ./internal/ocean
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzCampaignSpec$$' -fuzztime 10s ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzDeflate$$' -fuzztime 10s ./internal/deflate
	$(GO) test -run '^$$' -fuzz '^FuzzJobsCursor$$' -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzRecord$$' -fuzztime 10s ./internal/resultstore
	$(GO) test -run '^$$' -fuzz '^FuzzRangeSet$$' -fuzztime 10s ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzPageCache$$' -fuzztime 10s ./internal/storage

# golden re-verifies the committed output digests (per-experiment and
# the example campaign report); golden-update regenerates them after
# an intentional output change. go test hands every argument after a
# flag it does not know (-update) to the test binary, so the package
# comes first there.
.PHONY: golden golden-update
golden:
	$(GO) test -run '^TestGolden' -timeout 30m ./internal/experiments
	$(GO) test -run '^TestGoldenCampaignReport$$' -timeout 10m ./internal/campaign
golden-update:
	$(GO) test ./internal/experiments -run '^TestGolden' -timeout 30m -update
	$(GO) test ./internal/campaign -run '^TestGoldenCampaignReport$$' -timeout 10m -update

# bench records the benchmark set into OUT, which is required and must
# not be a committed ledger: make bench OUT=BENCH_pr13.json
bench:
	scripts/bench.sh $(OUT)

# profile captures serial CPU + heap pprof profiles for one experiment
# or pipeline (TARGET, default fig4) into PROFILE_DIR (default
# profiles/) and prints the top consumers. See DESIGN.md §12.
.PHONY: profile
profile:
	scripts/profile.sh $(or $(TARGET),fig4) $(or $(PROFILE_DIR),profiles)

# bench-check reruns the benchmark set into a scratch file and fails
# if any benchmark shared with the newest committed BENCH_*.json
# regressed by more than 10% ns/op (THRESHOLD env overrides).
.PHONY: bench-check
bench-check:
	scripts/bench.sh BENCH_check.json
	scripts/bench_compare.sh BENCH_check.json
	rm -f BENCH_check.json

# clean removes build outputs only; the committed BENCH_pr*.json
# ledger stays.
clean:
	rm -f greenviz greenvizd BENCH_check.json
	rm -rf profiles
