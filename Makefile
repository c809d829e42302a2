# Tier-1 verification in one command: `make test` runs vet, the
# deprecated-identifier guard and the full suite under the race detector;
# `make build` compiles everything; `make bench` regenerates the
# benchmark tables; `make check-metrics` smoke-tests the /metrics
# exposition against a live mediator binary.

GO ?= go

.PHONY: build test bench bench-smoke vet check-deprecated staticcheck check-metrics

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The /sparql redesign deleted the buffered FederatedSelect* wrappers,
# the per-subsystem Configure*/Stats methods and the ad-hoc /api/query
# route; the one-store change deleted the second triple store
# (DictStore), the in-process local:// endpoint transport and the
# synthetic view voiD; the one-canonicaliser change deleted the merge's
# and the graph streams' private sameAs representative caches
# (RepCache, corefCanon). This guard keeps them deleted: any Go file
# reintroducing one of the identifiers fails the build (and CI runs it
# on every push).
DEPRECATED_IDENTIFIERS = 'FederatedSelect|ConfigureFederation\(|ConfigurePlanner\(|ConfigureDecomposer\(|FederationStats\(\)|DecomposerStats\(\)|/api/query|DictStore|RegisterLocal|local://|SyntheticDataset|RepCache|NewRepCache|corefCanon'

check-deprecated:
	@matches=$$(grep -rnE $(DEPRECATED_IDENTIFIERS) --include='*.go' . || true); \
	if [ -n "$$matches" ]; then \
		echo "deprecated identifiers found (removed code paths):"; \
		echo "$$matches"; \
		exit 1; \
	fi
	@echo "check-deprecated: clean"

# Optional deeper linting; CI installs staticcheck and runs this.
staticcheck:
	staticcheck ./...

test: vet check-deprecated
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Fast single-iteration benchmark pass (CI runs this): keeps every
# benchmark compiling and running, and asserts the view-tier and merge
# benchmarks — whose bodies carry correctness checks, like the view
# path's zero-endpoint-round-trip guarantee — stayed part of the sweep.
bench-smoke:
	@$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./... >bench-smoke.out 2>&1 || \
		{ cat bench-smoke.out; rm -f bench-smoke.out; exit 1; }
	@for b in BenchmarkViewVsFederated/Federated BenchmarkViewVsFederated/View \
			BenchmarkE9_CorefLookup/MergeRep/StoreCanonical \
			BenchmarkE9_CorefLookup/MergeRep/ClientMemo; do \
		grep -q "$$b" bench-smoke.out || \
			{ echo "bench-smoke: $$b missing from the sweep" >&2; rm -f bench-smoke.out; exit 1; }; \
	done
	@cat bench-smoke.out; rm -f bench-smoke.out
	@echo "bench-smoke: every benchmark ran; view and merge benchmarks present"

# End-to-end observability smoke test: boot the real binary on a free
# port, run one planner-selected federated query, scrape /metrics and
# assert the core series from every layer are present and non-zero.
check-metrics:
	@./scripts/check_metrics.sh
