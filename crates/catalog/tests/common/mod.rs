//! The reference histogram builder shared by the catalog's differential
//! batteries: `tests/histogram_differential.rs` includes it as `mod
//! common;`, and the sampler battery (`src/sampling/differential.rs`)
//! through a `#[path]` attribute.

// ---------------------------------------------------------------------------
// The oracle: the per-bucket `BTreeSet` builder, verbatim.
// ---------------------------------------------------------------------------

/// A histogram built by [`oracle_build`]: its fields, as the builder
/// stores them.
pub(crate) struct OracleHistogram {
    pub(crate) boundaries: Vec<f64>,
    pub(crate) fractions: Vec<f64>,
    pub(crate) distinct: Vec<u64>,
}

/// `Histogram::equi_width` (`depth` false) or `equi_depth` (`depth`
/// true) as it was: a `total_cmp` sort and a per-bucket `BTreeSet` of
/// value bits.
pub(crate) fn oracle_build(
    values: &[f64],
    buckets: usize,
    depth: bool,
) -> Result<OracleHistogram, String> {
    if values.is_empty() {
        return Err("no values".into());
    }
    if buckets == 0 {
        return Err("zero buckets".into());
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err("non-finite value".into());
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (lo, hi) = (sorted[0], *sorted.last().expect("non-empty"));

    let boundaries: Vec<f64> = if depth {
        // Quantile boundaries; duplicates collapse buckets below.
        let mut b: Vec<f64> = (0..=buckets)
            .map(|i| {
                let pos = (i * (sorted.len() - 1)) / buckets;
                sorted[pos]
            })
            .collect();
        b.dedup();
        if b.len() < 2 {
            // All values identical: one degenerate bucket.
            vec![lo, hi]
        } else {
            b
        }
    } else if lo == hi {
        vec![lo, hi]
    } else {
        let width = (hi - lo) / buckets as f64;
        (0..=buckets).map(|i| lo + width * i as f64).collect()
    };

    let nb = boundaries.len() - 1;
    let mut counts = vec![0u64; nb];
    let mut uniques: Vec<std::collections::BTreeSet<u64>> =
        vec![std::collections::BTreeSet::new(); nb];
    for &v in &sorted {
        let b = oracle_bucket_of(&boundaries, v);
        counts[b] += 1;
        uniques[b].insert(v.to_bits());
    }
    let n = sorted.len() as f64;
    Ok(OracleHistogram {
        boundaries,
        fractions: counts.iter().map(|&c| c as f64 / n).collect(),
        distinct: uniques.iter().map(|u| u.len() as u64).collect(),
    })
}

/// Index of the bucket containing `v` (clamped to the ends).
fn oracle_bucket_of(boundaries: &[f64], v: f64) -> usize {
    let nb = boundaries.len() - 1;
    // partition_point over inner boundaries [1..nb]: first bucket whose
    // upper boundary is > v.
    let mut idx = boundaries[1..nb].partition_point(|&b| b <= v);
    if idx >= nb {
        idx = nb - 1;
    }
    idx
}
