GO ?= go

.PHONY: build test race bench-smoke verify-static mixvet vet-fix-check bin/mixvet

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

# One mixvet binary serves the tree run and the corpus smoke; go's build
# cache makes the rebuild a no-op, and CI reuses the same path across steps.
bin/mixvet:
	$(GO) build -o bin/mixvet ./cmd/mixvet

mixvet: bin/mixvet
	./bin/mixvet ./...

# vet-fix-check runs mixvet over its own testdata corpora: every corpus must
# keep producing findings (exit 1) — an analyzer regression that stops
# reporting shows up here, not as real bugs sliding through. The `broken`
# corpus must keep failing to load (exit 2): degraded type info must never
# pass silently.
vet-fix-check: bin/mixvet
	@set -e; \
	for d in internal/analysis/*/testdata/src/* cmd/mixvet/testdata/src/*; do \
		case $$d in \
		*/broken) want=2 ;; \
		*) want=1 ;; \
		esac; \
		if ./bin/mixvet "./$$d" >/dev/null 2>&1; then got=0; else got=$$?; fi; \
		if [ $$got -ne $$want ]; then \
			echo "vet-fix-check: mixvet $$d exited $$got, want $$want" >&2; \
			exit 1; \
		fi; \
		echo "vet-fix-check: $$d ok (exit $$want)"; \
	done

# verify-static runs every static check the CI verify-static job runs.
# staticcheck and govulncheck are skipped (with a notice) when the pinned
# binaries are not on PATH, so the target works offline; CI installs them.
verify-static: mixvet vet-fix-check
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
