# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race bench bench-compile repro fuzz fuzz-smoke examples clean
.PHONY: attestd attest-agent flood-net metrics-smoke
.PHONY: cover chaos-smoke cluster-smoke persist-smoke admin-smoke bench-unit bench-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race detector over the concurrent campaign-runner stack, the verifier's
# pending store, the networked transport/daemon/agent stack and the socket
# relay impersonator.
race:
	$(GO) test -race ./internal/runner/... ./internal/core/... \
		./internal/protocol/... ./internal/transport/... ./internal/server/... \
		./internal/agent/... ./internal/faultnet/... ./internal/cluster/... \
		./internal/journal/... ./internal/admin/... ./internal/adversary/...

# One benchmark per paper table/figure plus the ablations.
bench:
	$(GO) test -bench . -benchmem ./...

# Compile-and-run-once smoke over every benchmark: catches bitrot in bench
# code without paying for a full measurement pass (CI runs this).
bench-compile:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Vet and unit-test the end-to-end benchmark under bench/. It is its own
# Go module, so the root `go test ./...` does not build it; this catches a
# transport, protocol or agent API change that would break bench/run.sh.
# -short skips its smoke test, which builds attestd and runs every workload.
bench-unit:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Run every workload of the end-to-end benchmark for 0.5 s against a
# freshly built attestd, with every accounting check and the check that
# the metrics computed are exactly those BENCHMARK.json lists (its
# TestSmoke, which bench-unit skips; about 15 s).
bench-smoke:
	cd bench && $(GO) test -run 'TestSmoke$$' -count=1 ./...

# Regenerate every paper artifact and the attack campaigns.
repro:
	$(GO) run ./cmd/attest-tables
	$(GO) run ./cmd/attack-sim

# Machine-readable reproduction report.
repro-json:
	$(GO) run ./cmd/attest-tables -json

# Short fuzzing pass over the frame decoders and the assembler.
fuzz:
	$(GO) test -fuzz=FuzzDecodeAttReq -fuzztime=10s ./internal/protocol/
	$(GO) test -fuzz=FuzzDecodeCommandReq -fuzztime=10s ./internal/protocol/
	$(GO) test -fuzz=FuzzDecodeHello -fuzztime=10s ./internal/protocol/
	$(GO) test -fuzz=FuzzDecodeStatsReport -fuzztime=10s ./internal/protocol/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=10s ./internal/transport/
	$(GO) test -fuzz=FuzzParseSchedule -fuzztime=10s ./internal/faultnet/
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s ./internal/isa/
	$(GO) test -fuzz=FuzzAssemble -fuzztime=10s ./internal/isa/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/journal/

# The CI-sized fuzz pass: the wire-facing decoders plus the journal
# replayer (it parses whatever a crash left on disk — same trust level as
# a socket).
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=10s ./internal/transport/
	$(GO) test -fuzz=FuzzDecodeHello -fuzztime=10s ./internal/protocol/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/journal/

# Networked deployment binaries (bin/attestd, bin/attest-agent).
attestd:
	$(GO) build -o bin/attestd ./cmd/attestd

attest-agent:
	$(GO) build -o bin/attest-agent ./cmd/attest-agent

# Coverage gate for the networked stack. Floors sit a few points below
# current coverage (transport ~95%, agent ~94%, server ~88%, admin ~91%)
# so timing-dependent branches don't flake the gate while a real
# regression still fails it.
cover:
	@mkdir -p bin
	@set -e; \
	check() { \
		pkg=$$1; floor=$$2; name=$$(basename $$pkg); \
		$(GO) test -count=1 -coverprofile=bin/cover-$$name.out ./$$pkg/ >/dev/null; \
		pct=$$($(GO) tool cover -func=bin/cover-$$name.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit (p + 0 < f + 0) ? 1 : 0 }' \
			|| { echo "FAIL: $$pkg coverage $$pct% is below the $$floor% floor"; exit 1; }; \
	}; \
	check internal/transport 92; \
	check internal/agent 85; \
	check internal/server 85; \
	check internal/admin 85

# Control-plane acceptance check: the admin HTTP handlers (auth matrix,
# JSON shapes), the daemon-side Controller integration (evict/reattest
# round trip over real TCP, drain contract with the goroutine-leak
# check), the /healthz-/readyz probe flips and the admission-tier engine,
# all under the race detector.
admin-smoke:
	$(GO) test -race -count=1 -v ./internal/admin/
	$(GO) test -race -run 'TestAdmin|TestReadyz|TestTier|TestParseTierSpecs|TestBuildTiers|TestDefaultTierMatchesFlatLimiter' -count=1 -v ./internal/server/

# Chaos acceptance check: a seeded fleet over faultnet chaos (flapping
# links, dropped frames), then the faults stop and every agent must
# recover — fresh MAC work on all devices, monotone fleet aggregates,
# zero phantom reboots, graceful drain, no leaked goroutines.
chaos-smoke:
	$(GO) test -run TestChaosSmoke -count=1 -v ./internal/server/

# Observability acceptance check: an in-process attestd serving a real
# agent over TCP, scraped over HTTP, with every documented series present
# and parseable (daemon counters/histograms, fleet gauges, transport).
metrics-smoke:
	$(GO) test -run TestMetricsSmoke -count=1 -v ./internal/server/

# The end-to-end socket demo: daemon + relay impersonator + agent over TCP
# localhost.
# Exits non-zero unless the gate-rejection and MAC-work counts show the
# paper's asymmetry, so it doubles as an acceptance check.
flood-net:
	$(GO) run ./examples/netflood

# Cluster acceptance check: live state handoff between owners, the
# three-daemon kill-one failover drill, replica-adoption semantics and the
# VerifierStore seam, all under the race detector.
cluster-smoke:
	$(GO) test -race -run 'TestCluster|TestReplicaAdoption|TestInjectedStore' -count=1 -v ./internal/server/

# Persistence acceptance check: the journal engine end to end plus the
# in-process kill -9 restart drills (exact adoption under fsync=always,
# jumped under fsync=interval, zero freshness rejects either way), the
# store conformance suite and the persistent-store allocation pins, all
# under the race detector.
persist-smoke:
	$(GO) test -race -count=1 ./internal/journal/
	$(GO) test -race -run 'TestRestartDrill|TestPersistentStore|TestStoreConformance|TestGateRejectZeroAllocsOverPersistentStore|TestShardedStoreGetZeroAllocs|TestAgentStatsMonotoneUnderChurn' -count=1 -v ./internal/server/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dosflood
	$(GO) run ./examples/netflood
	$(GO) run ./examples/roamingattack
	$(GO) run ./examples/secureboot
	$(GO) run ./examples/secureupdate
	$(GO) run ./examples/fleet
	$(GO) run ./examples/malware

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
	rm -rf bin
