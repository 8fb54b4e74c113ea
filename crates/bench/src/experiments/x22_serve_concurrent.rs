//! X22 (extension) — the concurrent serving tier under cache pressure.
//!
//! A round-robin stream over 16 isomorphism classes (5-table chain
//! queries with distinct join-key domains) against a plan cache of 8
//! entries: sequentially, the LRU thrashes — nearly every request pays a
//! full optimizer run. The [`ConcurrentServer`] recovers that work
//! honestly: a batch window of consecutive global ordinals is primed with
//! **one optimization per distinct would-miss class**, and every request
//! in the window consumes the primed plans. The measured speedup is
//! algorithmic (deduplicated optimizer work), not parallel-hardware
//! scaling — on this repo's single-core reference host, thread fan-out
//! alone cannot beat 1.0×, which is exactly why the ≥2× floor below is an
//! honest claim at any worker count.
//!
//! The run **self-asserts** before writing `results/BENCH_serve_concurrent.json`:
//!
//! * the 1-worker / window-1 replay row matches the sequential loop's
//!   cache and search counters exactly (the concurrency layer is
//!   invisible when degenerate);
//! * every batched row clears `MIN_CONCURRENT_SPEEDUP` (2.0×) over the
//!   sequential loop, and the replay row clears the dispatch floor;
//! * in-window dedup actually saved optimizations, tail latency is
//!   finite, and no row recalibrated (the N ≡ 1 equivalence is exact).
//!
//! Set `X22_REQUESTS` to run a shorter stream; short runs write to
//! `BENCH_serve_concurrent_smoke.json` so the committed full-length
//! artifact is never overwritten by a smoke pass.

use crate::table::{ratio, Table};
use lec_catalog::{Catalog, ColumnMeta, TableMeta};
use lec_cost::PaperCostModel;
use lec_exec::PAGE_CAPACITY;
use lec_serve::cache::shard_of;
use lec_serve::{
    ConcurrencyConfig, ConcurrentServer, DriftConfig, QueryRequest, QueryService, ServeConfig,
};
use lec_stats::Distribution;
use lec_workload::from_catalog::{query_from_catalog, JoinSpec};
use std::path::PathBuf;
use std::time::Instant;

/// Catalog width; classes are sliding `CHAIN`-table windows over these.
const TABLES: usize = 22;
/// Isomorphism classes in the stream — double the cache capacity, so the
/// sequential LRU cannot hold the working set.
const CLASSES: usize = 16;
/// Tables per chain query. Seven relations make the optimizer run the
/// dominant per-miss cost (the quantity batching deduplicates), while the
/// single-page tables keep execution cheap and uniform.
const CHAIN: usize = 7;
/// Plan-cache capacity in entries, over `CACHE_SHARDS` shards.
const CACHE_CAPACITY: usize = 8;
const CACHE_SHARDS: usize = 4;
/// Batch window in global ordinals: eight full rounds of the class
/// rotation, so priming amortizes each class's optimization ~8×.
const BATCH_WINDOW: usize = 128;
/// Full-artifact stream length. `X22_REQUESTS` overrides in either
/// direction: shorter runs are smoke passes, while `X22_REQUESTS=1000000`
/// (or more) writes the full artifact at the million-request scale the
/// committed record targets.
const DEFAULT_REQUESTS: usize = 100_000;

/// Self-asserted floor for every batched row's throughput speedup over
/// the sequential loop. The win is deduplicated optimizer work, so it
/// holds on a single core; falling below it means the batching layer
/// stopped paying for itself and the run panics rather than writing the
/// artifact.
const MIN_CONCURRENT_SPEEDUP: f64 = 2.0;
/// Floor for the degenerate 1-worker / window-1 replay row: pure
/// dispatch, so anything beyond ~25% overhead is a bug.
const MIN_REPLAY_SPEEDUP: f64 = 0.75;

/// Debug builds additionally route to the gitignored `_debug` files.
fn json_path(smoke: bool) -> PathBuf {
    crate::artifacts::artifact_path(if smoke {
        "serve_concurrent_smoke"
    } else {
        "serve_concurrent"
    })
}

/// Twenty single-page tables whose join-key domains differ (`400 + 16·i`
/// distinct values), so the sliding chain classes below are pairwise
/// non-isomorphic: canonicalization sees distinct join selectivities.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for i in 0..TABLES {
        let distinct = (400 + 16 * i) as u64;
        c.register(
            TableMeta::new(format!("t{i:02}"), PAGE_CAPACITY as u64, 1)
                .expect("x22: table shape is statically valid")
                .with_column(ColumnMeta::new("k", distinct, 0.0, (distinct - 1) as f64)),
        )
        .expect("x22: tables register into an empty catalog");
    }
    c
}

/// Class `c` joins tables `t{c} … t{c+CHAIN-1}` in a chain on the key.
fn templates() -> Vec<QueryRequest> {
    (0..CLASSES)
        .map(|c| {
            let tables: Vec<String> = (c..c + CHAIN).map(|i| format!("t{i:02}")).collect();
            let joins = (0..CHAIN - 1)
                .map(|j| JoinSpec {
                    left_table: tables[j].clone(),
                    left_column: "k".into(),
                    right_table: tables[j + 1].clone(),
                    right_column: "k".into(),
                })
                .collect();
            QueryRequest {
                tables,
                joins,
                filters: vec![],
                order_by: None,
            }
        })
        .collect()
}

fn stream(len: usize) -> Vec<QueryRequest> {
    let ts = templates();
    (0..len).map(|i| ts[i % ts.len()].clone()).collect()
}

/// Four memory scenarios (more precomputed plans per miss — the work the
/// batch window deduplicates); drift detection effectively disabled so
/// the stream is provably quiet and the N ≡ 1 counter equivalence is
/// exact.
fn config() -> ServeConfig {
    let dist = |pts: &[(f64, f64)]| {
        Distribution::new(pts.iter().copied()).expect("x22: scenario weights are statically valid")
    };
    let mut cfg = ServeConfig::new(
        vec![
            dist(&[(4.0, 0.6), (40.0, 0.4)]),
            dist(&[(16.0, 0.5), (80.0, 0.5)]),
            dist(&[(8.0, 1.0)]),
            dist(&[(64.0, 1.0)]),
        ],
        dist(&[(8.0, 0.5), (48.0, 0.5)]),
    );
    cfg.cache_capacity = CACHE_CAPACITY;
    cfg.cache_shards = CACHE_SHARDS;
    cfg.drift = DriftConfig {
        error_threshold: 1e9,
        min_observations: 4,
        blend: 0.8,
    };
    cfg
}

/// Nearest-rank percentile over an unsorted sample, in ns.
fn percentile(walls: &mut [u64], p: f64) -> u64 {
    walls.sort_unstable();
    let idx = ((p / 100.0) * (walls.len() - 1) as f64).round() as usize;
    walls[idx]
}

struct Row {
    label: String,
    workers: usize,
    window: usize,
    wall_ns: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    hits: u64,
    misses: u64,
    dedup_saved: u64,
    primed_consumed: u64,
    optimizer_invocations: u64,
    recalibrations: u64,
    degraded: u64,
}

fn sequential_row(requests: &[QueryRequest]) -> (Row, QueryService<PaperCostModel>) {
    let mut svc = QueryService::new(PaperCostModel, catalog(), catalog(), config())
        .expect("x22: sequential service constructs");
    let mut walls = Vec::with_capacity(requests.len());
    let clock = Instant::now();
    for req in requests {
        let t = Instant::now();
        svc.serve(req).expect("x22: sequential request serves");
        walls.push(t.elapsed().as_nanos() as u64);
    }
    let wall_ns = clock.elapsed().as_nanos() as u64;
    let stats = svc.stats();
    let row = Row {
        label: "sequential".into(),
        workers: 0,
        window: 0,
        wall_ns,
        p50_ns: percentile(&mut walls, 50.0),
        p95_ns: percentile(&mut walls, 95.0),
        p99_ns: percentile(&mut walls, 99.0),
        hits: stats.cache.hits,
        misses: stats.cache.misses,
        dedup_saved: 0,
        primed_consumed: 0,
        optimizer_invocations: svc.optimizer_invocations(),
        recalibrations: svc.recalibrations(),
        degraded: stats.resilience.degraded_serves,
    };
    (row, svc)
}

fn concurrent_row(
    requests: &[QueryRequest],
    workers: usize,
    window: usize,
) -> (Row, ConcurrentServer<PaperCostModel>) {
    let mut server = ConcurrentServer::new(
        PaperCostModel,
        catalog(),
        catalog(),
        config(),
        ConcurrencyConfig {
            workers,
            batch_window: window,
        },
    )
    .expect("x22: concurrent server constructs");
    let outcome = server
        .serve_stream(requests)
        .expect("x22: concurrent stream serves");
    assert_eq!(outcome.outcomes.len(), requests.len());
    let mut walls: Vec<u64> = outcome.outcomes.iter().map(|o| o.wall_ns).collect();
    let stats = server.stats();
    let row = Row {
        label: format!("{workers}w / window {window}"),
        workers,
        window,
        wall_ns: outcome.wall_ns,
        p50_ns: percentile(&mut walls, 50.0),
        p95_ns: percentile(&mut walls, 95.0),
        p99_ns: percentile(&mut walls, 99.0),
        hits: stats.cache.hits,
        misses: stats.cache.misses,
        dedup_saved: outcome.dedup_saved,
        primed_consumed: server.primed_consumed(),
        optimizer_invocations: server.optimizer_invocations(),
        recalibrations: outcome.recalibrations,
        degraded: stats.resilience.degraded_serves,
    };
    (row, server)
}

/// The shards the 16 classes actually land on — recorded so the artifact
/// shows the affinity split the workers inherit.
fn class_shards() -> Vec<usize> {
    let c = catalog();
    templates()
        .iter()
        .map(|req| {
            let tables: Vec<&str> = req.tables.iter().map(String::as_str).collect();
            let q = query_from_catalog(&c, &tables, &req.joins, &req.filters, req.order_by)
                .expect("x22: class query builds");
            shard_of(&lec_plan::canonicalize(&q).fingerprint, CACHE_SHARDS)
        })
        .collect()
}

/// Runs the experiment, returning a markdown section; also writes the
/// JSON artifact (full or smoke path depending on the stream length).
pub fn run() -> String {
    let requests_len = std::env::var("X22_REQUESTS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_REQUESTS);
    run_impl(requests_len)
}

fn run_impl(requests_len: usize) -> String {
    // Anything below the default stream length is a smoke pass; scaled-up
    // runs (`X22_REQUESTS=1000000`) write the full artifact.
    let smoke = requests_len < DEFAULT_REQUESTS;
    let requests = stream(requests_len);

    let (seq, seq_svc) = sequential_row(&requests);
    assert_eq!(seq.recalibrations, 0, "x22: the stream must be drift-quiet");

    let sweep = [
        (1usize, 1usize),
        (1, BATCH_WINDOW),
        (2, BATCH_WINDOW),
        (4, BATCH_WINDOW),
    ];
    let mut rows: Vec<(Row, f64, f64)> = Vec::new();
    for (workers, window) in sweep {
        let (row, server) = concurrent_row(&requests, workers, window);
        let speedup = seq.wall_ns as f64 / row.wall_ns as f64;
        let min_speedup = if window == 1 {
            MIN_REPLAY_SPEEDUP
        } else {
            MIN_CONCURRENT_SPEEDUP
        };
        assert!(
            speedup >= min_speedup,
            "x22: workers={workers} window={window} speedup {speedup:.4} fell below its \
             self-asserted floor {min_speedup} — refusing to write the artifact"
        );
        assert_eq!(row.recalibrations, 0, "x22: rows must stay drift-quiet");
        assert!(
            row.p99_ns > 0 && row.p99_ns < u64::MAX,
            "x22: p99 must be finite and positive"
        );
        if window == 1 {
            // Degenerate replay: the concurrency layer must be invisible.
            let (a, b) = (server.stats(), seq_svc.stats());
            assert_eq!(a.cache, b.cache, "x22: replay row cache counters");
            assert_eq!(a.counters, b.counters, "x22: replay row search counters");
            assert_eq!(
                server.optimizer_invocations(),
                seq.optimizer_invocations,
                "x22: replay row invocations"
            );
            assert_eq!(row.dedup_saved, 0, "x22: window 1 cannot dedup");
        } else {
            assert!(row.dedup_saved > 0, "x22: batching must deduplicate misses");
            assert!(
                row.optimizer_invocations < seq.optimizer_invocations,
                "x22: batching must cut optimizer invocations"
            );
        }
        rows.push((row, speedup, min_speedup));
    }

    let shards = class_shards();
    let distinct_shards = {
        let mut s = shards.clone();
        s.sort_unstable();
        s.dedup();
        s.len()
    };
    assert!(
        distinct_shards >= 2,
        "x22: classes must spread over several shards for affinity to mean anything"
    );

    let throughput = |row: &Row| requests_len as f64 / (row.wall_ns as f64 / 1e9);
    let mut t = Table::new(&[
        "run",
        "wall",
        "req/s",
        "speedup",
        "p50 / p95 / p99",
        "hit rate",
        "dedup saved",
        "opt runs",
    ]);
    let fmt_row = |row: &Row, speedup: Option<f64>| {
        vec![
            row.label.clone(),
            format!("{:.1} ms", row.wall_ns as f64 / 1e6),
            format!("{:.0}", throughput(row)),
            speedup.map_or("—".into(), ratio),
            format!(
                "{:.0} / {:.0} / {:.0} µs",
                row.p50_ns as f64 / 1e3,
                row.p95_ns as f64 / 1e3,
                row.p99_ns as f64 / 1e3
            ),
            format!(
                "{:.1}%",
                100.0 * row.hits as f64 / (row.hits + row.misses).max(1) as f64
            ),
            row.dedup_saved.to_string(),
            row.optimizer_invocations.to_string(),
        ]
    };
    t.row(fmt_row(&seq, None));
    for (row, speedup, _) in &rows {
        t.row(fmt_row(row, Some(*speedup)));
    }

    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let row_json = |row: &Row, speedup: f64, min_speedup: f64| {
        format!(
            "    {{\"workers\": {}, \"batch_window\": {}, \"wall_ns\": {}, \
             \"throughput_rps\": {:.1}, \"speedup\": {speedup:.4}, \
             \"min_speedup\": {min_speedup}, \"p50_ns\": {}, \"p95_ns\": {}, \
             \"p99_ns\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"dedup_saved\": {}, \"primed_consumed\": {}, \
             \"optimizer_invocations\": {}, \"recalibrations\": {}, \
             \"degraded_serves\": {}}}",
            row.workers,
            row.window,
            row.wall_ns,
            throughput(row),
            row.p50_ns,
            row.p95_ns,
            row.p99_ns,
            row.hits,
            row.misses,
            row.dedup_saved,
            row.primed_consumed,
            row.optimizer_invocations,
            row.recalibrations,
            row.degraded,
        )
    };
    let rows_json: Vec<String> = rows
        .iter()
        .map(|(row, speedup, min)| row_json(row, *speedup, *min))
        .collect();
    let shard_list: Vec<String> = shards.iter().map(usize::to_string).collect();
    let json = format!(
        "{{\n  \"experiment\": \"x22_serve_concurrent\",\n  \"requests\": {requests_len},\n  \
         \"classes\": {CLASSES},\n  \"cache_capacity\": {CACHE_CAPACITY},\n  \
         \"cache_shards\": {CACHE_SHARDS},\n  \"batch_window\": {BATCH_WINDOW},\n  \
         \"host_threads\": {host_threads},\n  \"self_asserted\": true,\n  \
         \"optimized_build\": {},\n  \
         \"class_shards\": [{}],\n  \
         \"sequential\": {{\"wall_ns\": {}, \"throughput_rps\": {:.1}, \
         \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"cache_hits\": {}, \
         \"cache_misses\": {}, \"optimizer_invocations\": {}}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        crate::artifacts::OPTIMIZED_BUILD,
        shard_list.join(", "),
        seq.wall_ns,
        throughput(&seq),
        seq.p50_ns,
        seq.p95_ns,
        seq.p99_ns,
        seq.hits,
        seq.misses,
        seq.optimizer_invocations,
        rows_json.join(",\n")
    );
    let path = json_path(smoke);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("results dir");
    }
    std::fs::write(&path, &json).expect("write BENCH_serve_concurrent json");

    format!(
        "## X22 — concurrent serving tier under cache pressure\n\n\
         {requests_len} requests round-robined over {CLASSES} chain-query \
         classes against an {CACHE_CAPACITY}-entry / {CACHE_SHARDS}-shard \
         plan cache (working set 2× capacity, so the sequential loop \
         thrashes). Batched rows prime each window of {BATCH_WINDOW} global \
         ordinals with one optimization per distinct would-miss class; the \
         speedup is deduplicated optimizer work, honest on a single core. \
         Each request's latency is its serve call plus an even share of \
         its window's priming, so every row's percentiles are comparable \
         with the sequential loop's. The 1-worker / window-1 row \
         replays the sequential loop and must match its counters exactly. \
         Machine-readable copy written to \
         `results/BENCH_serve_concurrent{}.json`.\n\n{}\n",
        if smoke { "_smoke" } else { "" },
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short stream through the full harness; writes the smoke artifact,
    /// never the committed full-length one.
    #[test]
    fn renders_asserts_and_writes_smoke_json() {
        let md = run_impl(600);
        assert!(md.contains("X22"));
        assert!(md.contains("sequential |"));
        assert!(md.contains("4w / window 128 |"));
        let json = std::fs::read_to_string(json_path(true)).unwrap();
        assert!(json.contains("\"experiment\": \"x22_serve_concurrent\""));
        assert!(json.contains("\"self_asserted\": true"));
        assert!(json.contains("\"min_speedup\""));
        assert!(json.contains("\"dedup_saved\""));
        assert!(json.contains("\"sequential\""));
        assert!(json.contains("\"workers\": 4"));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn floors_are_sane() {
        assert!(MIN_CONCURRENT_SPEEDUP >= 2.0);
        assert!(MIN_REPLAY_SPEEDUP < 1.0);
        assert!(CLASSES > CACHE_CAPACITY, "working set must exceed capacity");
        assert_eq!(BATCH_WINDOW % CLASSES, 0, "window covers whole rotations");
    }

    #[test]
    fn classes_are_distinct_and_sharded() {
        let shards = class_shards();
        assert_eq!(shards.len(), CLASSES);
        let c = catalog();
        let mut fps = std::collections::BTreeSet::new();
        for req in templates() {
            let tables: Vec<&str> = req.tables.iter().map(String::as_str).collect();
            let q = query_from_catalog(&c, &tables, &req.joins, &req.filters, None).unwrap();
            fps.insert(lec_plan::canonicalize(&q).fingerprint.encoding().to_vec());
        }
        assert_eq!(
            fps.len(),
            CLASSES,
            "classes must be pairwise non-isomorphic"
        );
    }
}
