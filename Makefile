GO ?= go

# Seeds for the full torture tier; the smoke tier is what CI runs per push.
# Each seed set runs once per op count in TORTURE_OPS: a short episode ends
# before most fault schedules fire and leaves its whole version history
# unpruned, a long one crashes mid-flight — the erase-then-refold snapshot bug
# only ever showed at 150.
TORTURE_SEEDS ?= 100
TORTURE_SMOKE_SEEDS ?= 25
TORTURE_OPS ?= 150 400

.PHONY: all verify race vet fmt staticcheck structure lint torture torture-smoke bench

all: verify

# Tier-1: must stay green on every commit. The truth checks of every plane
# (flight recorder, hot spots, MVCC, deferred tier, view DAG, freshness,
# scrubber) are tests in the root package; without -short they run the long
# soak sizes.
verify:
	$(GO) build ./...
	$(GO) test ./...

# Race tier: the short test set under the race detector.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck is optional locally (skipped when not on PATH); CI installs it
# so the lint job always runs the full set.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

# One home for a row's versions: only the B-tree (which owns the chain slot)
# and the kernel may know internal/mvcc, and the sidecar store's API stays
# gone. One owner for a transaction's escrow deltas: the shared ledger, its
# option and the fold queue stay gone, and the pending set stays lock-free.
# One proof and one benchmark: cmd/ holds the three tools, the retired smoke
# binaries and bench gate stay gone (benchmark/ is frozen and exempt), and
# make verify is the tier-1 line.
structure:
	@out="$$(grep -rl --include='*.go' '"repro/internal/mvcc"' . | grep -v -e '^./internal/mvcc/' -e '^./internal/btree/' -e '^./internal/core/')"; \
	if [ -n "$$out" ]; then echo "internal/mvcc imported outside internal/btree and internal/core:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE --include='*.go' 'TrackedKeys|\.Evict\(' .)"; \
	if [ -n "$$out" ]; then echo "sidecar version-store API is back:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE --include='*.go' 'PendingTxns|NewLedgerShards|EscrowShards|popMinTree|sortedRowKeys' .)"; \
	if [ -n "$$out" ]; then echo "the shared escrow ledger or the fold queue is back:"; echo "$$out"; exit 1; fi
	@out="$$(grep -n 'sync\.' internal/escrow/pending.go)"; \
	if [ -n "$$out" ]; then echo "internal/escrow/pending.go: the pending set has one owner and takes no locks:"; echo "$$out"; exit 1; fi
	@test "$$(ls cmd | tr '\n' ' ')" = "viewbench vtxnshell vtxntorture " || \
		{ echo "cmd/ holds viewbench, vtxnshell and vtxntorture only:"; ls cmd; exit 1; }
	@out="$$(grep -rlE --exclude-dir=.git --exclude-dir=benchmark --exclude='[A-Z]*.md' \
		'bench[g]ate|BENCH_(baseline|fresh)|bench-[s]moke|(flightrec|hotspots?|mvcc|deferred|viewdag|freshness|scrub)-?[s]moke' .)"; \
	if [ -n "$$out" ]; then echo "the retired smoke binaries or bench gate are back:"; echo "$$out"; exit 1; fi
	@test "$$($(MAKE) --no-print-directory -n verify | tr '\n' ';')" = "$(GO) build ./...;$(GO) test ./...;" || \
		{ echo "make verify must be exactly the tier-1 line: go build ./... && go test ./..."; exit 1; }

lint: vet fmt staticcheck structure

# Crash-torture tier: seeded fault-injection episodes through crash,
# recovery, and the recompute-from-base consistency check.
torture:
	@for ops in $(TORTURE_OPS); do \
		echo "$(GO) run ./cmd/vtxntorture -seeds $(TORTURE_SEEDS) -ops $$ops"; \
		$(GO) run ./cmd/vtxntorture -seeds $(TORTURE_SEEDS) -ops $$ops || exit 1; done

torture-smoke:
	@for ops in $(TORTURE_OPS); do \
		echo "$(GO) run ./cmd/vtxntorture -seeds $(TORTURE_SMOKE_SEEDS) -ops $$ops"; \
		$(GO) run ./cmd/vtxntorture -seeds $(TORTURE_SMOKE_SEEDS) -ops $$ops || exit 1; done

# The benchmark, parent against change: build ./benchmark at BASE (checked
# out in a temporary git worktree) and at the working tree, run BENCH_PAIRS
# pairs over all five workloads — each pair with a fresh seed, the side that
# runs first alternating — append each side's runs to benchmark/out/
# parent.jsonl and change.jsonl, and judge them with the benchmark's
# -compare, which fails on REGRESSED and never on UNRESOLVED.
BASE ?= HEAD~1
BENCH_PAIRS ?= 10

bench:
	@set -e; tmp="$$(mktemp -d)"; out="$(CURDIR)/benchmark/out"; \
	trap 'git worktree remove --force "$$tmp/parent" >/dev/null 2>&1 || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach --quiet "$$tmp/parent" $(BASE); \
	(cd "$$tmp/parent" && $(GO) build -o "$$tmp/parent.bin" ./benchmark); \
	$(GO) build -o "$$tmp/change.bin" ./benchmark; \
	mkdir -p "$$out"; \
	parent() { (cd "$$tmp/parent" && "$$tmp/parent.bin" -seed $$1 -out "$$out/parent.jsonl"); }; \
	change() { "$$tmp/change.bin" -seed $$1 -out "$$out/change.jsonl"; }; \
	for i in $$(seq 1 $(BENCH_PAIRS)); do \
		seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
		echo "== pair $$i/$(BENCH_PAIRS), seed $$seed"; \
		if [ $$((i % 2)) -eq 1 ]; then parent $$seed; change $$seed; else change $$seed; parent $$seed; fi; \
	done; \
	$(GO) run ./benchmark -compare "$$out/parent.jsonl" "$$out/change.jsonl"
