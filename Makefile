GO ?= go

# Seeds for the full torture tier; the smoke tier is what CI runs per push.
# Each seed set runs once per op count in TORTURE_OPS: a short episode ends
# before most fault schedules fire and leaves its whole version history
# unpruned, a long one crashes mid-flight — the erase-then-refold snapshot bug
# only ever showed at 150.
TORTURE_SEEDS ?= 100
TORTURE_SMOKE_SEEDS ?= 25
TORTURE_OPS ?= 150 400

.PHONY: all verify race vet fmt staticcheck structure lint torture torture-smoke bench bench-record

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
# One proof and one benchmark: cmd/ holds the shell and the torture tool, the
# retired smoke binaries and bench gate stay gone, and the paper's claims are
# test assertions, so the print-only evaluation harness (its package, its CLI,
# the workload drivers, their think time and the fold-latch stripe option)
# stays gone (benchmark/ is frozen and exempt); make verify is the tier-1
# line. One background runner:
# internal/core/bg.go holds the only go statement of the engine, its scrubber
# and its watchdog, and the hand-rolled loops and the test-only knobs stay
# gone. No deadlock detector: the lock manager starts no goroutine, a blocked
# request checks for the cycle it closed, and the waits-for graph is read from
# the lock table, never stored. One home per counter: DB.Metrics is the only
# counter API; the engine's counters live in the metrics registry, the lock
# manager's in its shards and a view's in its one record, so DB.Stats,
# lock.Stats, the per-shard wait table and the per-view map copies stay gone,
# and internal/metrics holds one copy-on-write map. A published catalog is
# read-only: a catalog is written only while it is private, the apply registry
# publishes it with its maintainers by one atomic pointer, and
# internal/catalog and internal/apply take no sync.Mutex or sync.RWMutex. One
# mechanism per job in the observability plane: the flight recorder is one
# ring indexed by sequence number and a span is a transaction ID, so the span
# table (spanShard, resolveSpan, SpanOf) stays gone; top and the watchdog diff
# hot-group listings with metrics.HotGroupGrowth, so metrics.SnapshotRing and
# its rate types and hottestWaitGroup stay gone. One recompute, one compare:
# db.recompute is the only caller of view.Maintainer.Recompute outside
# internal/view, the row-materializing viewSourceRows and relationRows stay
# gone, and CheckConsistency reads a view's stored rows through the scrubber's
# verifyView, never Tree.Items. One whole view per scrub slice, against one
# snapshot pair: the group-range cursor (viewEntries, verify.Clip, MaxGroups)
# and the pair re-read with its discard (pinAttempts) stay gone from every .go
# file outside benchmark/, and non-test internal/scrub never sleeps. One
# ordering rule for deferred views: the applier folds a delta only above its
# view's watermark, so the barrier messages (applier.Barrier, applier.Msg,
# DropTree, hasBarrier, errRefreshedUnderneath, publishDeferredBarrier) stay
# gone from every .go file outside benchmark/, and non-test internal/core
# never sleeps. A committed trajectory: a change to internal/ adds its
# benchmark pair under BENCH_history/ (make bench, then make bench-record).
structure:
	@out="$$(grep -rl --include='*.go' '"repro/internal/mvcc"' . | grep -v -e '^./internal/mvcc/' -e '^./internal/btree/' -e '^./internal/core/')"; \
	if [ -n "$$out" ]; then echo "internal/mvcc imported outside internal/btree and internal/core:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE --include='*.go' 'TrackedKeys|\.Evict\(' .)"; \
	if [ -n "$$out" ]; then echo "sidecar version-store API is back:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE --include='*.go' 'PendingTxns|NewLedgerShards|EscrowShards|popMinTree|sortedRowKeys' .)"; \
	if [ -n "$$out" ]; then echo "the shared escrow ledger or the fold queue is back:"; echo "$$out"; exit 1; fi
	@out="$$(grep -n 'sync\.' internal/escrow/pending.go)"; \
	if [ -n "$$out" ]; then echo "internal/escrow/pending.go: the pending set has one owner and takes no locks:"; echo "$$out"; exit 1; fi
	@test "$$(ls cmd | tr '\n' ' ')" = "vtxnshell vtxntorture " || \
		{ echo "cmd/ holds vtxnshell and vtxntorture only:"; ls cmd; exit 1; }
	@out="$$(grep -rlE --exclude-dir=.git --exclude-dir=benchmark --exclude='[A-Z]*.md' \
		'bench[g]ate|BENCH_(baseline|fresh)|bench-[s]moke|(flightrec|hotspots?|mvcc|deferred|viewdag|freshness|scrub)-?[s]moke' .)"; \
	if [ -n "$$out" ]; then echo "the retired smoke binaries or bench gate are back:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rlE --exclude-dir=.git --exclude-dir=benchmark --exclude='[A-Z]*.md' \
		'repro/internal/[b]ench|view[b]ench|Run[C]oncurrent|Think[T]ime|FoldLatch[S]tripes' .)"; \
	if [ -n "$$out" ]; then echo "the print-only evaluation harness is back:"; echo "$$out"; exit 1; fi
	@test "$$($(MAKE) --no-print-directory -n verify | tr '\n' ';')" = "$(GO) build ./...;$(GO) test ./...;" || \
		{ echo "make verify must be exactly the tier-1 line: go build ./... && go test ./..."; exit 1; }
	@out="$$(grep -nE '^\s*go ' $$(ls internal/core/*.go internal/scrub/*.go internal/flightrec/*.go | grep -v '_test\.go$$'))"; \
		test "$$(echo "$$out" | grep -c .)" = 1 || \
		{ echo "internal/core, internal/scrub and internal/flightrec start goroutines in the background runner alone:"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE --include='*.go' --exclude-dir=benchmark \
		'DeferredApplyInterval|DeadlockSweepInterval|ProfileLabels|WatchdogStallThreshold|LockShards|StartWatchdog|cleanerLoop|prunerLoop|applierLoop|applierDrainOnStop' .)"; \
		if [ -n "$$out" ]; then echo "a hand-rolled background loop or a retired knob is back:"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE '^\s*go ' $$(ls internal/lock/*.go | grep -v '_test\.go$$'))"; \
		if [ -n "$$out" ]; then echo "internal/lock starts no goroutine:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE --include='*.go' --exclude-dir=benchmark \
		'detectorLoop|kickDetector|sweepInterval|addWaiterEdges|newEdgeSet|freeEdges|edgeFree|checkEdgeConsistency' .)"; \
		if [ -n "$$out" ]; then echo "the deadlock detector goroutine or the stored waits-for graph is back:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE --include='*.go' --exclude-dir=benchmark \
		'func \(db \*DB\) Stats\(|core\.Stats|Stats = core|lock\.Stats|ShardStats|ShardWait|InitShards|ViewCosts|ScrubViews|db\.folds' .)"; \
		if [ -n "$$out" ]; then echo "a second home for a counter is back:"; echo "$$out"; exit 1; fi
	@test "$$(cat $$(ls internal/metrics/*.go | grep -v '_test\.go$$') | grep -c 'atomic\.Pointer\[map')" = 1 || \
		{ echo "internal/metrics keeps one copy-on-write per-view map:"; grep -n 'atomic\.Pointer\[map' internal/metrics/*.go; exit 1; }
	@out="$$(grep -nE 'sync\.(RW)?Mutex' $$(ls internal/catalog/*.go internal/apply/*.go | grep -v '_test\.go$$'))"; \
		if [ -n "$$out" ]; then echo "a published catalog is read-only: internal/catalog and internal/apply take no locks:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE --include='*.go' --exclude-dir=benchmark \
		'SnapshotRing|TimedSnapshot|GroupRate|ViewRate|spanShard|resolveSpan|SpanOf|hottestWaitGroup' .)"; \
		if [ -n "$$out" ]; then echo "a second snapshot ring, the span table or a second hot-group diff is back:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE --include='*.go' 'viewSourceRows|relationRows' .)"; \
		if [ -n "$$out" ]; then echo "one recompute: the row-materializing source readers are back:"; echo "$$out"; exit 1; fi
	@out="$$(grep -n '\.Items(' internal/core/check.go)"; \
		if [ -n "$$out" ]; then echo "one compare: CheckConsistency reads stored rows through verifyView, not Tree.Items:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rn --include='*.go' '\.Recompute(' . | grep -v -e '_test\.go:' -e '^./internal/view/' -e '^./benchmark/')"; \
		test "$$(echo "$$out" | grep -c .)" = 1 || \
		{ echo "one recompute: db.recompute is the only caller of Recompute outside internal/view and benchmark/:"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE --include='*.go' --exclude-dir=benchmark 'viewEntries|verify\.Clip|MaxGroups|pinAttempts' .)"; \
		if [ -n "$$out" ]; then echo "one view per scrub slice: the group-range cursor or the pair discard is back:"; echo "$$out"; exit 1; fi
	@out="$$(grep -n 'time\.Sleep' $$(ls internal/scrub/*.go | grep -v '_test\.go$$'))"; \
		if [ -n "$$out" ]; then echo "internal/scrub never sleeps: a slice yields and re-pins, it does not back off:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE --include='*.go' --exclude-dir=benchmark \
		'applier\.Barrier|applier\.Msg|DropTree|hasBarrier|errRefreshedUnderneath|publishDeferredBarrier' .; \
		grep -n 'time\.Sleep' $$(ls internal/core/*.go | grep -v '_test\.go$$'))"; \
		if [ -n "$$out" ]; then echo "one ordering rule for deferred views: a barrier message or a core sleep-poll is back:"; echo "$$out"; exit 1; fi
	@if git rev-parse -q --verify '$(BASE)^{commit}' >/dev/null 2>&1; then \
		if git diff --name-only $(BASE) -- internal | grep -q . && \
			! git diff --name-only --diff-filter=A $(BASE) -- 'BENCH_history/pr*-change.jsonl' | grep -q .; then \
			echo "the change touches internal/ since $(BASE) but adds no BENCH_history/pr<NN>-change.jsonl: make bench, then make bench-record NN=<NN>"; exit 1; fi; \
	else echo "structure: $(BASE) is not a commit here; BENCH_history rule skipped"; fi

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
# -compare, which fails on REGRESSED and never on UNRESOLVED. Before the
# first pair and after the last it times the machine-speed anchor,
# BenchmarkCalibration (calib_test.go: fixed CPU-only work no engine change
# moves), as the median ns/op of 5 runs, and writes the two
# readings to benchmark/out/calib_ns for make bench-record.
BASE ?= HEAD~1
BENCH_PAIRS ?= 10

bench:
	@set -e; tmp="$$(mktemp -d)"; out="$(CURDIR)/benchmark/out"; \
	trap 'git worktree remove --force "$$tmp/parent" >/dev/null 2>&1 || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach --quiet "$$tmp/parent" $(BASE); \
	(cd "$$tmp/parent" && $(GO) build -o "$$tmp/parent.bin" ./benchmark); \
	$(GO) build -o "$$tmp/change.bin" ./benchmark; \
	$(GO) test -c -o "$$tmp/calib.test" .; \
	mkdir -p "$$out"; \
	parent() { (cd "$$tmp/parent" && "$$tmp/parent.bin" -seed $$1 -out "$$out/parent.jsonl"); }; \
	change() { "$$tmp/change.bin" -seed $$1 -out "$$out/change.jsonl"; }; \
	calib() { "$$tmp/calib.test" -test.run '^$$' -test.bench '^BenchmarkCalibration$$' -test.benchtime 500x \
		-test.count 5 | awk '/^BenchmarkCalibration/ { print $$3 }' | sort -n | \
		awk '{ v[NR] = $$1 } END { print v[int((NR + 1) / 2)] }'; }; \
	before=$$(calib); echo "== calibration before the pairs: $$before ns/op"; \
	for i in $$(seq 1 $(BENCH_PAIRS)); do \
		seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
		echo "== pair $$i/$(BENCH_PAIRS), seed $$seed"; \
		if [ $$((i % 2)) -eq 1 ]; then parent $$seed; change $$seed; else change $$seed; parent $$seed; fi; \
	done; \
	after=$$(calib); echo "== calibration after the pairs: $$after ns/op"; \
	echo "$$before,$$after" > "$$out/calib_ns"; \
	$(GO) run ./benchmark -compare "$$out/parent.jsonl" "$$out/change.jsonl"

# Commit one change's benchmark pairs: copy make bench's two result files
# unchanged to BENCH_history/pr$(NN)-{parent,change}.jsonl, so -compare reads
# them as they are, and write pr$(NN).env with both commits, the machine, the
# Go version, the seeds of the runs and calib_ns=<before>,<after>, the
# machine-speed anchor make bench read before and after the pairs. A number
# quoted across PRs is quoted as a ratio to that anchor. If its two readings
# differ by more than 10 %, the box drifted during the pairs: nothing is
# recorded, and the pairs are re-run. BENCH_history/ is append-only: an
# existing record is never overwritten.
bench-record:
	@set -e; test -n "$(NN)" || { echo "usage: make bench-record NN=<pr number> [BASE=<parent commit>]"; exit 1; }; \
	out=benchmark/out; hist=BENCH_history; mkdir -p "$$hist"; \
	for side in parent change; do \
		test -s "$$out/$$side.jsonl" || { echo "$$out/$$side.jsonl is missing or empty: run make bench first"; exit 1; }; \
		test ! -e "$$hist/pr$(NN)-$$side.jsonl" || { echo "$$hist/pr$(NN)-$$side.jsonl exists; BENCH_history is append-only"; exit 1; }; \
	done; \
	test -s "$$out/calib_ns" || { echo "$$out/calib_ns is missing: run make bench first"; exit 1; }; \
	calib="$$(cat "$$out/calib_ns")"; \
	echo "$$calib" | awk -F, '{ d = $$2 - $$1; if (d < 0) d = -d; exit !($$1 > 0 && d <= 0.10 * $$1) }' || \
		{ echo "calibration moved from $${calib%,*} to $${calib#*,} ns/op, more than 10 %: the box drifted during the pairs; re-run make bench"; exit 1; }; \
	cp "$$out/parent.jsonl" "$$hist/pr$(NN)-parent.jsonl"; \
	cp "$$out/change.jsonl" "$$hist/pr$(NN)-change.jsonl"; \
	change="$$(git rev-parse HEAD)"; \
	git diff --quiet HEAD -- . ':!BENCH_history' || change="$$change+worktree"; \
	{ echo "parent=$$(git rev-parse $(BASE))"; \
	  echo "change=$$change"; \
	  echo "cpu=$$(grep -m1 '^model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ *//')"; \
	  echo "cores=$$(nproc)"; \
	  echo "gomaxprocs=$${GOMAXPROCS:-$$(nproc)}"; \
	  echo "go=$$($(GO) env GOVERSION)"; \
	  echo "seeds=$$(grep -oh '"seed":[0-9]*' "$$out/parent.jsonl" "$$out/change.jsonl" | cut -d: -f2 | sort -un | tr '\n' ' ' | sed 's/ $$//')"; \
	  echo "calib_ns=$$calib"; \
	} > "$$hist/pr$(NN).env"; \
	cat "$$hist/pr$(NN).env"
