# Developer entry points. `make verify` is the tier-1 gate the CI driver
# runs; the others are the fast local loops.

.PHONY: verify test bench-smoke lint lint-strict xtable fault-smoke kernel-smoke serve-concurrent-smoke rules-smoke sampling-smoke perfbench-replay ci

# Tier-1: release build + full test suite (what must never regress).
verify:
	cargo build --release
	cargo test -q

test:
	cargo test --workspace

# Compile and run every Criterion bench once in test mode (no measurement).
bench-smoke:
	cargo bench --workspace -- --test

lint:
	cargo clippy --workspace --all-targets -- -D warnings

# Project-specific lint pass (lec-lint): determinism/soundness rules over
# all workspace sources, plus the call-graph audit passes (lec-audit:
# panic-reachability, concurrency-determinism, float-order, invariant
# conformance — DESIGN.md §10), ratchets enforced, machine-readable
# diagnostics left in results/LINT.json.
lint-strict:
	mkdir -p results
	cargo run --release -p lec-analyze --bin lec-lint -- --strict --audit --json results/LINT.json

# Regenerate every experiment table (and results/BENCH_kernel.json).
xtable:
	cargo run --release -p lec-bench --bin xtable all

# Fault-injection smoke: run X21 (which self-asserts its closed-form
# counters, the frontier-before-LSC ladder ordering, and bit-identical
# replay in-process) and check the machine-readable artifact landed.
fault-smoke:
	cargo run --release -p lec-bench --bin xtable x21 > /dev/null
	test -s results/BENCH_faults.json
	grep -q '"experiment": "x21_faults"' results/BENCH_faults.json
	grep -q '"every_request_served": true' results/BENCH_faults.json
	grep -q '"frontier_before_lsc": true' results/BENCH_faults.json

# Kernel smoke: re-run X18 and check the machine-readable serial-DP
# trajectory has its per-rank wall times, the serial-speedup block the
# kernel rewrite is judged by, and the parametric block the shared
# scenario sweep is judged by.
kernel-smoke:
	cargo run --release -p lec-bench --bin xtable x18 > /dev/null
	test -s results/BENCH_kernel.json
	grep -q '"experiment": "x18_kernel"' results/BENCH_kernel.json
	grep -q '"host_threads"' results/BENCH_kernel.json
	grep -q '"rank_wall_ns"' results/BENCH_kernel.json
	grep -q '"serial_speedup"' results/BENCH_kernel.json
	grep -q '"min_speedup"' results/BENCH_kernel.json
	grep -q '"parametric"' results/BENCH_kernel.json
	grep -q '"one_by_one_median_ns"' results/BENCH_kernel.json
	grep -q '"bit_identical": true' results/BENCH_kernel.json
	grep -q '"self_asserted": true' results/BENCH_kernel.json
	grep -q '"optimized_build": true' results/BENCH_kernel.json

# Concurrent-serving smoke: run X22 on a short stream (X22_REQUESTS
# redirects the artifact to the _smoke file, so the committed full-length
# BENCH_serve_concurrent.json is never overwritten here) and check the
# self-assertion markers landed. X22 itself asserts the ≥2x batched
# speedup floors, in-window dedup, and the 1-worker/window-1 replay's
# counter identity with the sequential loop before writing anything.
serve-concurrent-smoke:
	X22_REQUESTS=4000 cargo run --release -p lec-bench --bin xtable x22 > /dev/null
	test -s results/BENCH_serve_concurrent_smoke.json
	grep -q '"experiment": "x22_serve_concurrent"' results/BENCH_serve_concurrent_smoke.json
	grep -q '"self_asserted": true' results/BENCH_serve_concurrent_smoke.json
	grep -q '"min_speedup"' results/BENCH_serve_concurrent_smoke.json
	grep -q '"workers": 4' results/BENCH_serve_concurrent_smoke.json

# Selection-rule smoke: run X23 (which self-asserts LEC bit-identity to
# alg_c, the LEC-rule serve stream's bit-identity to the default config,
# minmax's worst-case-regret dominance, and at least one strict robust
# win before writing anything) and check the artifact markers landed.
rules-smoke:
	cargo run --release -p lec-bench --bin xtable x23 > /dev/null
	test -s results/BENCH_rules.json
	grep -q '"experiment": "x23_rules"' results/BENCH_rules.json
	grep -q '"self_asserted": true' results/BENCH_rules.json
	grep -q '"least-expected-cost"' results/BENCH_rules.json
	grep -q '"minmax-regret"' results/BENCH_rules.json
	grep -q '"penalty-aware"' results/BENCH_rules.json
	grep -q '"tail-risk"' results/BENCH_rules.json
	grep -q '"worst_case_regret"' results/BENCH_rules.json
	grep -q '"p99_degradation"' results/BENCH_rules.json
	grep -q '"optimized_build": true' results/BENCH_rules.json

# Sampling/certificate smoke: run X24 at a reduced draw count (X24_DRAWS
# routes the artifact to the gitignored _smoke file, so the committed
# full-draw BENCH_sampling.json is never overwritten here) and check the
# self-assertion markers landed. X24 itself asserts per-env certificate
# soundness (truth-in-box ⇒ the (ε, δ) bound holds) and per-group
# validity ≥ 1−δ before writing anything; only the full-draw tightness
# assert is skipped in smoke mode.
sampling-smoke:
	X24_DRAWS=256 cargo run --release -p lec-bench --bin xtable x24 > /dev/null
	test -s results/BENCH_sampling_smoke.json
	grep -q '"experiment": "x24_sampling"' results/BENCH_sampling_smoke.json
	grep -q '"self_asserted": true' results/BENCH_sampling_smoke.json
	grep -q '"certificate_validity"' results/BENCH_sampling_smoke.json
	grep -q '"optimized_build": true' results/BENCH_sampling_smoke.json

# Serve-loop replay oracle: perfbench's traced run replays every request
# through `Mirror`, an independent copy of the serving loop, and fails any
# request whose plan, cost bits, I/O or certificate differ from what the
# service served. A short seeded run of each workload must report
# `"correct": true` with no failed request.
perfbench-replay:
	@for w in hot_hits miss_storm drift_certify; do \
		out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 3 --trace 1 | tail -n 1); \
		echo "$$out" | grep -q '"correct": true' || { echo "perfbench replay failed: $$w"; exit 1; }; \
		echo "$$out" | grep -q '"failed": 0,' || { echo "perfbench replay failed: $$w"; exit 1; }; \
		echo "perfbench replay ok: $$w ($$(echo "$$out" | grep -o '"attempted": [0-9]*, "failed": [0-9]*'))"; \
	done

# Full local CI gate: formatting, clippy, the lec-lint pass and its audit
# markers in results/LINT.json, rustdoc with warnings denied (no doc link
# may point at a missing or private item), the whole test suite (one
# `cargo test --workspace` runs the unit, integration and doc-tests), one
# untimed pass of every Criterion bench, the X19/X20 runs that must leave
# well-formed results/BENCH_stats.json and results/BENCH_serve.json
# behind, the fault/kernel/concurrent/rules/sampling smokes above, then
# the perfbench replay oracle over all three workloads.
ci:
	cargo fmt --all -- --check
	cargo clippy --workspace --all-targets -- -D warnings
	$(MAKE) lint-strict
	test -s results/LINT.json
	grep -q '"audit"' results/LINT.json
	grep -q '"serve_roots": 0' results/LINT.json
	grep -q '"optimize_roots": 0' results/LINT.json
	grep -q '"sample_roots": 0' results/LINT.json
	grep -q '"certify_roots": 0' results/LINT.json
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
	cargo test -q --workspace
	$(MAKE) bench-smoke
	cargo run --release -p lec-bench --bin xtable x19 > /dev/null
	test -s results/BENCH_stats.json
	grep -q '"experiment": "x19_stats"' results/BENCH_stats.json
	cargo run --release -p lec-bench --bin xtable x20 > /dev/null
	test -s results/BENCH_serve.json
	grep -q '"experiment": "x20_serve"' results/BENCH_serve.json
	$(MAKE) fault-smoke
	$(MAKE) kernel-smoke
	$(MAKE) serve-concurrent-smoke
	$(MAKE) rules-smoke
	$(MAKE) sampling-smoke
	$(MAKE) perfbench-replay
