GO ?= go

# Package scope for test/bench targets, e.g. `make bench PKG=./internal/chromatic`.
PKG ?= ./...

# Hot paths gated by the CI bench-track job (>20% ns/op, allocs/op, or
# custom-metric — e.g. serve p99 — regressions fail).
BENCH_TRACK ?= ApplyAffine|E7RA|Solve|Census|Orbit|Serve|VerifyWitness

.PHONY: all build test race bench bench-track fmt vet ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test $(PKG)

race:
	$(GO) test -race $(PKG)

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short -benchmem $(PKG)

bench-track:
	$(GO) test -run '^$$' -bench '$(BENCH_TRACK)' -benchtime 1s -short -benchmem $(PKG)

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: build vet fmt test
