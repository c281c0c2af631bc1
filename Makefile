GO ?= go

.PHONY: build test race bench-smoke smoke-cli verify-static

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

# smoke-cli is CI's "Examples and CLI smoke" step: every program under
# examples/, then mixql's explain and metrics modes over the paper data set
# with the rootv view registered. Any non-zero exit fails it.
SMOKE_QUERY = FOR $$R IN document(rootv)/CustRec $$S IN $$R/OrderInfo WHERE $$S/orders/value > 20000 RETURN $$R

smoke-cli:
	@set -e; for d in examples/*/; do \
		echo "smoke-cli: go run ./$$d"; \
		$(GO) run ./$$d >/dev/null; \
	done
	@set -e; for mode in -plan -trace -cost -metrics "-cost-opt -trace"; do \
		echo "smoke-cli: mixql -view $$mode"; \
		$(GO) run ./cmd/mixql -view $$mode '$(SMOKE_QUERY)' >/dev/null; \
	done

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
