# Developer entry points. `make verify` is the tier-1 gate the CI driver
# runs; the others are the fast local loops.

.PHONY: verify test bench-smoke lint lint-strict xtable fault-smoke kernel-smoke serve-concurrent-smoke rules-smoke objectives-smoke search-smoke sampling-smoke perfbench-replay ci

# Tier-1: release build + full test suite (what must never regress).
verify:
	cargo build --release
	cargo test -q

test:
	cargo test --workspace

# Compile and run every Criterion bench once in test mode (no measurement).
# `cargo bench` also runs the library test harnesses in the optimized
# bench profile, so lec-bench's experiment tests write release artifacts:
# XTABLE_SMOKE routes them to the gitignored _smoke files.
bench-smoke:
	XTABLE_SMOKE=1 cargo bench --workspace -- --test

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
# scenario sweep is judged by. XTABLE_SMOKE routes the artifact to the
# gitignored _smoke file, so the committed BENCH_kernel.json (whose wall
# times change on every run) is never overwritten here.
kernel-smoke:
	XTABLE_SMOKE=1 cargo run --release -p lec-bench --bin xtable x18 > /dev/null
	test -s results/BENCH_kernel_smoke.json
	grep -q '"experiment": "x18_kernel"' results/BENCH_kernel_smoke.json
	grep -q '"host_threads"' results/BENCH_kernel_smoke.json
	grep -q '"rank_wall_ns"' results/BENCH_kernel_smoke.json
	grep -q '"serial_speedup"' results/BENCH_kernel_smoke.json
	grep -q '"min_speedup"' results/BENCH_kernel_smoke.json
	grep -q '"parametric"' results/BENCH_kernel_smoke.json
	grep -q '"one_by_one_median_ns"' results/BENCH_kernel_smoke.json
	grep -q '"bit_identical": true' results/BENCH_kernel_smoke.json
	grep -q '"self_asserted": true' results/BENCH_kernel_smoke.json
	grep -q '"optimized_build": true' results/BENCH_kernel_smoke.json

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

# Objectives smoke: re-run the experiments every objective path feeds —
# X3 (Algorithm B on top-c, beside Algorithms A and C), X11 (utilities:
# frontier DP and the unsound scalar DP), X15 (the parametric start-up
# pick and its formula-evaluation counts), X14 (the EVPI table behind the
# sampling decision), X16 (frontier growth) and X23 (selection rules) —
# and diff each section against the committed results/xtable_all.md. All
# six are deterministic (no timings), so any difference is a changed plan,
# score or counter.
OBJECTIVE_SECTIONS = X3 X11 X14 X15 X16 X23
objectives-smoke:
	mkdir -p target
	cargo run --release -p lec-bench --bin xtable x3 x11 x14 x15 x16 x23 > target/objectives-smoke.md
	@for s in $(OBJECTIVE_SECTIONS); do \
		awk -v s="## $$s " 'index($$0, s) == 1 {on = 1; print; next} /^## X/ {on = 0} on' \
			results/xtable_all.md > target/objectives-want.$$s; \
		awk -v s="## $$s " 'index($$0, s) == 1 {on = 1; print; next} /^## X/ {on = 0} on' \
			target/objectives-smoke.md > target/objectives-got.$$s; \
		test -s target/objectives-want.$$s || { echo "objectives smoke: no $$s section in results/xtable_all.md"; exit 1; }; \
		diff -u target/objectives-want.$$s target/objectives-got.$$s || { echo "objectives smoke: $$s differs from results/xtable_all.md"; exit 1; }; \
		echo "objectives smoke ok: $$s"; \
	done

# Search smoke: re-run X19 (Algorithm C's search counters on chain
# queries, and the Pareto DP's frontier sizes) and diff its section
# against the committed results/xtable_all.md with the `wall` column
# blanked. Everything else in it is deterministic, so any difference is a
# changed count of masks expanded or pruned, candidates priced, entries
# written or table sizes: the enumeration regression oracle X19 promises.
# XTABLE_SMOKE routes X19's artifact (which records wall times) to the
# gitignored results/BENCH_stats_smoke.json.
search-smoke:
	mkdir -p target
	XTABLE_SMOKE=1 cargo run --release -p lec-bench --bin xtable x19 > target/search-smoke.md
	@for f in want:results/xtable_all.md got:target/search-smoke.md; do \
		awk -F'|' -v OFS='|' 'index($$0, "## X19 ") == 1 {on = 1; print; next} /^## X/ {on = 0} on {if (NF == 9) $$8 = ""; print}' \
			$${f#*:} > target/search-$${f%%:*}.X19; \
	done
	@test -s target/search-want.X19 || { echo "search smoke: no X19 section in results/xtable_all.md"; exit 1; }
	@diff -u target/search-want.X19 target/search-got.X19 || { echo "search smoke: X19 counters differ from results/xtable_all.md"; exit 1; }
	@echo "search smoke ok: X19"

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
# markers in results/LINT.json (panic-free root groups, and no
# concurrency-determinism finding even under a pragma), rustdoc with warnings denied (no doc link
# may point at a missing or private item), the whole test suite (one
# `cargo test --workspace` runs the unit, integration and doc-tests), one
# untimed pass of every Criterion bench, the X19 search smoke (which
# leaves results/BENCH_stats_smoke.json behind) and the X20 run that must
# leave a well-formed results/BENCH_serve_smoke.json (with its
# self-asserted `hit_path` block), the
# fault/kernel/concurrent/rules/objectives/sampling smokes above, then the
# perfbench replay oracle over all three workloads. Timed artifacts go to
# gitignored _smoke files, and the run ends by requiring that it changed
# nothing under results/: committed measurements change only when an
# experiment is re-run on purpose.
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
	grep -q '"concurrency_determinism": {"violations": 0, "allowed": 0}' results/LINT.json
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
	cargo test -q --workspace
	$(MAKE) bench-smoke
	$(MAKE) search-smoke
	test -s results/BENCH_stats_smoke.json
	grep -q '"experiment": "x19_stats"' results/BENCH_stats_smoke.json
	XTABLE_SMOKE=1 cargo run --release -p lec-bench --bin xtable x20 > /dev/null
	test -s results/BENCH_serve_smoke.json
	grep -q '"experiment": "x20_serve"' results/BENCH_serve_smoke.json
	grep -q '"hit_path"' results/BENCH_serve_smoke.json
	grep -q '"memo_hit_p50_ns"' results/BENCH_serve_smoke.json
	grep -q '"self_asserted": true' results/BENCH_serve_smoke.json
	$(MAKE) fault-smoke
	$(MAKE) kernel-smoke
	$(MAKE) serve-concurrent-smoke
	$(MAKE) rules-smoke
	$(MAKE) objectives-smoke
	$(MAKE) sampling-smoke
	$(MAKE) perfbench-replay
	@test -z "$$(git status --porcelain results/)" || { git status --porcelain results/; echo "ci: the run changed committed results/ files"; exit 1; }
