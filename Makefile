GO ?= go

.PHONY: build test race bench-smoke verify-static

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke is CI's "Bench smoke" step: the benchmark command over all four
# workloads, short, gated by its exit code (oracle, replay parity, teardown).
bench-smoke:
	bash bench/run.sh --workload all --seed 1 --seconds 3 --trace 1

# verify-static runs every static check the CI verify-static job runs.
# staticcheck and govulncheck are skipped (with a notice) when the pinned
# binaries are not on PATH, so the target works offline; CI installs them.
# The repository's own source checks (cursorclose, lockorder) are tests in
# internal/lint and run under `make test`.
verify-static:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "verify-static: staticcheck not installed, skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "verify-static: govulncheck not installed, skipping (CI runs it)"; \
	fi
