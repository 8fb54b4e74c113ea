//! Properties of the sample-backed certification path
//! (`ServeConfig::resample`).
//!
//! 1. **Quiet streams never resample.** With accurate beliefs the drift
//!    detector stays silent, so the resampling counter never moves; every
//!    serve still carries a certificate (from the cheap first-touch
//!    intervals), and the whole thing is deterministic: a fresh service on
//!    the same stream reproduces every certificate exactly.
//! 2. **Certification never perturbs serving.** On the same stream, a
//!    resampling service and a legacy (`resample: None`) service produce
//!    bit-identical plans, costs, and cache behavior while no drift fires —
//!    certificates ride along, they don't steer.
//! 3. **Forced drift resamples, and resampling pays.** A belief/truth
//!    mismatch fires the detector; in resample mode that triggers a fresh
//!    full-budget sample (replacing the blending recalibration), and the
//!    first post-resample certificate is *strictly* tighter (smaller ε)
//!    than the stale pre-resample one.
//! 4. **`resample: None` replays the blending path bit-identically.** Two
//!    fresh legacy services on a drifting stream agree on every plan, every
//!    cost bit, every recalibration decision, and the final recalibrated
//!    beliefs — and never produce a certificate.

use lec_catalog::{Catalog, ColumnMeta, Histogram, TableMeta};
use lec_cost::PaperCostModel;
use lec_exec::PAGE_CAPACITY;
use lec_serve::{
    DriftConfig, DriftTarget, QueryRequest, QueryService, ResampleConfig, ServeConfig,
};
use lec_stats::Distribution;
use lec_workload::from_catalog::{FilterSpec, JoinSpec};

/// Two tables joined on their first columns; `v` on `cust` is filterable.
/// `hist` is the per-bucket mass of `cust.v` over [0, 100] (8 buckets).
fn catalog(cust_pages: u64, order_pages: u64, domain: u64, hist: &[f64; 8]) -> Catalog {
    let mut c = Catalog::new();
    let values: Vec<f64> = hist
        .iter()
        .enumerate()
        .flat_map(|(b, &mass)| {
            let n = (mass * 800.0).round() as usize;
            (0..n).map(move |i| b as f64 * 12.5 + 12.5 * (i as f64 + 0.5) / n.max(1) as f64)
        })
        .collect();
    c.register(
        TableMeta::new("cust", cust_pages * PAGE_CAPACITY as u64, cust_pages)
            .unwrap()
            .with_column(ColumnMeta::new("ck", domain, 0.0, domain as f64 - 1.0))
            .with_column(
                ColumnMeta::new("v", 800, 0.0, 100.0)
                    .with_histogram(Histogram::equi_width(&values, 8).unwrap()),
            ),
    )
    .unwrap();
    c.register(
        TableMeta::new("ord", order_pages * PAGE_CAPACITY as u64, order_pages)
            .unwrap()
            .with_column(ColumnMeta::new("ok", domain, 0.0, domain as f64 - 1.0)),
    )
    .unwrap();
    c
}

fn request(lo: f64, hi: f64) -> QueryRequest {
    QueryRequest {
        tables: vec!["cust".into(), "ord".into()],
        joins: vec![JoinSpec {
            left_table: "cust".into(),
            left_column: "ck".into(),
            right_table: "ord".into(),
            right_column: "ok".into(),
        }],
        filters: vec![FilterSpec {
            table: "cust".into(),
            column: "v".into(),
            lo,
            hi,
            indexed: false,
        }],
        order_by: None,
    }
}

fn config(resample: Option<ResampleConfig>) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        vec![
            Distribution::new([(4.0, 0.6), (40.0, 0.4)]).unwrap(),
            Distribution::new([(16.0, 0.5), (80.0, 0.5)]).unwrap(),
        ],
        Distribution::new([(8.0, 0.5), (48.0, 0.5)]).unwrap(),
    );
    cfg.drift = DriftConfig {
        error_threshold: 0.5,
        min_observations: 3,
        blend: 0.8,
    };
    cfg.resample = resample;
    cfg
}

const UNIFORM: [f64; 8] = [0.125; 8];

fn selection_target() -> DriftTarget {
    DriftTarget::Selection {
        table: "cust".into(),
        column: "v".into(),
    }
}

#[test]
fn quiet_stream_never_resamples_and_certifies_deterministically() {
    let cat = catalog(10, 18, 512, &UNIFORM);
    let rc = ResampleConfig::default();
    let run = || {
        let mut svc =
            QueryService::new(PaperCostModel, cat.clone(), cat.clone(), config(Some(rc))).unwrap();
        let req = request(12.5, 50.0);
        let mut certs = Vec::new();
        for _ in 0..6 {
            let served = svc.serve(&req).unwrap();
            assert!(served.recalibrations.is_empty(), "beliefs match truth");
            certs.push(served.certificate.expect("resample mode must certify"));
        }
        assert_eq!(svc.resamples(), 0, "no drift, no resampling");
        assert_eq!(svc.recalibrations(), 0);
        // First-touch intervals were sampled at the cheap budget.
        let iv = svc.stat_interval(&selection_target()).unwrap();
        assert_eq!(iv.draws, rc.initial_draws);
        certs
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same stream, same seeds, same certificates");
    // Intervals are cached: unchanged beliefs give one certificate per
    // stream, repeated.
    for c in &a[1..] {
        assert_eq!(c, &a[0]);
    }
    // The certificate is a real two-sided bound.
    assert!(a[0].epsilon.is_finite() && a[0].epsilon >= 0.0);
    assert!(a[0].chosen_upper >= a[0].optimal_lower);
    assert!(
        (a[0].delta - 0.1).abs() < 1e-12,
        "one filter + one join at δ = 0.05 each"
    );
}

#[test]
fn certification_rides_along_without_steering_plans() {
    let cat = catalog(10, 18, 512, &UNIFORM);
    let mut with = QueryService::new(
        PaperCostModel,
        cat.clone(),
        cat.clone(),
        config(Some(ResampleConfig::default())),
    )
    .unwrap();
    let mut without =
        QueryService::new(PaperCostModel, cat.clone(), cat.clone(), config(None)).unwrap();
    let req = request(12.5, 50.0);
    for _ in 0..6 {
        let a = with.serve(&req).unwrap();
        let b = without.serve(&req).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.expected_cost.to_bits(), b.expected_cost.to_bits());
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.cache_hit, b.cache_hit);
        assert!(a.certificate.is_some());
        assert!(b.certificate.is_none(), "legacy path claims nothing");
    }
}

#[test]
fn forced_drift_resamples_and_tightens_the_certificate() {
    // Beliefs think `v` is uniform; the truth concentrates most mass in the
    // filtered bucket, so the filter passes ~6x more rows than believed —
    // guaranteed drift.
    let beliefs = catalog(10, 18, 512, &UNIFORM);
    let mut hot = [0.03; 8];
    hot[0] = 0.79;
    let truth = catalog(10, 18, 512, &hot);
    let rc = ResampleConfig::default();
    let mut svc = QueryService::new(PaperCostModel, beliefs, truth, config(Some(rc))).unwrap();

    let req = request(0.0, 12.5);
    let mut stale_eps = None;
    let mut fresh_eps = None;
    for _ in 0..10 {
        let served = svc.serve(&req).unwrap();
        let cert = served.certificate.expect("resample mode must certify");
        if stale_eps.is_some() {
            fresh_eps = Some(cert.epsilon);
            break;
        }
        if !served.recalibrations.is_empty() {
            // This serve was certified against the pre-resample intervals;
            // its own feedback then fired the detector and resampled.
            stale_eps = Some(cert.epsilon);
        }
    }
    let stale = stale_eps.expect("sustained 6x error must fire the detector");
    let fresh = fresh_eps.expect("stream must continue past the resample");

    assert!(svc.resamples() >= 1, "drift must trigger resampling");
    assert_eq!(
        svc.resamples(),
        svc.recalibrations(),
        "every recalibration of a resampling service resamples"
    );
    // The drifted statistic now carries a full-budget interval...
    let iv = svc.stat_interval(&selection_target()).unwrap();
    assert_eq!(iv.draws, rc.draws);
    // ...and the post-resample certificate is strictly tighter than the
    // stale one (fresh beliefs + narrower interval).
    assert!(
        fresh < stale,
        "post-resample ε {fresh} must beat stale ε {stale}"
    );
}

#[test]
fn resample_off_replays_the_blending_path_bit_identically() {
    let beliefs = catalog(10, 18, 512, &UNIFORM);
    let mut hot = [0.03; 8];
    hot[0] = 0.79;
    let truth = catalog(10, 18, 512, &hot);

    let run = |_| {
        let mut svc =
            QueryService::new(PaperCostModel, beliefs.clone(), truth.clone(), config(None))
                .unwrap();
        let req = request(0.0, 12.5);
        let mut log = Vec::new();
        for _ in 0..8 {
            let served = svc.serve(&req).unwrap();
            assert!(served.certificate.is_none());
            log.push((
                served.plan.clone(),
                served.expected_cost.to_bits(),
                served
                    .recalibrations
                    .iter()
                    .map(|r| r.decision.clone())
                    .collect::<Vec<_>>(),
            ));
        }
        assert_eq!(svc.resamples(), 0);
        assert!(svc.recalibrations() > 0, "the drift must fire either way");
        (log, svc.beliefs().clone())
    };
    let (log_a, beliefs_a) = run(0);
    let (log_b, beliefs_b) = run(1);
    assert_eq!(log_a, log_b, "legacy path must replay bit-identically");
    assert_eq!(
        beliefs_a, beliefs_b,
        "blending recalibration must be deterministic"
    );
    // And the blending path really did blend: the recalibrated histogram
    // differs from the prior.
    assert_ne!(&beliefs_a, &beliefs);
}
