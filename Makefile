# Convenience entry points; CI runs the same commands.

.PHONY: test vet lint race bench

test:
	go build ./... && go test ./...

vet:
	go vet ./...

# lint mirrors the CI lint job: formatting gates the build, then vet.
lint:
	@diff=$$(gofmt -l .); if [ -n "$$diff" ]; then \
		echo "gofmt needed on:"; echo "$$diff"; exit 1; fi
	go vet ./...

# race mirrors the CI race job; the sharded engine makes it load-bearing.
race:
	go test -race ./...

# bench records the perf trajectory tracked per PR into the next
# BENCH_PR<k>.json (auto-numbered from the highest tracked file):
# balancing runs, direct-vs-jump end-game — plain, strict tie rule, and
# graph topologies — session churn, direct-vs-sharded dense regime, the
# allocation-free epoch-loop floor, the micro tier (batched draws, one
# configuration move, one engine step per sampler), the rlsweep -scaling
# speedup-vs-P cells, and the rlsweep -serviceload ServiceLoad* cells
# (multi-tenant rlsd event→apply p50/p99 and throughput).
# compare_bench.sh diffs the two latest tracked files.
bench:
	./scripts/bench.sh

# scaling prints the speedup-vs-P table for the sharded engine on this
# machine (see the JSON header for cores/GOMAXPROCS caveats).
.PHONY: scaling
scaling:
	go run ./cmd/rlsweep -scaling

# serviceload prints the multi-tenant service load table for this machine
# (CI's service job runs the full 1000x50x30s study and gates it with
# scripts/check_service.sh).
.PHONY: serviceload
serviceload:
	go run ./cmd/rlsweep -serviceload
