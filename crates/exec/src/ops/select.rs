//! Filtered scans: the executor side of a local selection predicate.
//!
//! The cost model charges a selective access path `pages + out` (read the
//! base table, materialize the filtered intermediate); this operator does
//! exactly that. The predicate is synthetic-but-uniform: a tuple passes if
//! a hash of its payload falls below the selectivity threshold, so any
//! requested selectivity is realized in expectation regardless of how the
//! payloads were generated.

use crate::bufferpool::BufferPool;
use crate::disk::{Disk, RelId};
use crate::error::ExecError;
use crate::ops::PageWriter;
use crate::tuple::Tuple;

/// True iff the tuple passes a uniform pseudo-random predicate with the
/// given selectivity. Deterministic in the tuple's payload.
pub fn passes(t: Tuple, selectivity: f64) -> bool {
    // SplitMix64 finalizer: uniform in [0, 1) over payloads.
    let mut z = t.payload.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) < selectivity
}

/// Reads `input`, keeps tuples passing the selectivity predicate, and
/// materializes the result. Costs `pages(input)` reads plus the output
/// writes — the access-path cost the optimizer charges.
pub fn filtered_scan(
    disk: &mut Disk,
    pool: &mut BufferPool,
    input: RelId,
    selectivity: f64,
) -> Result<RelId, ExecError> {
    if !(selectivity.is_finite() && (0.0..=1.0).contains(&selectivity)) {
        return Err(ExecError::Unsupported(format!(
            "selectivity {selectivity} outside [0, 1]"
        )));
    }
    let out = disk.create();
    let mut writer = PageWriter::new(out);
    let mut scratch: Vec<Tuple> = Vec::new();
    for p in 0..disk.pages(input)? {
        scratch.clear();
        scratch.extend_from_slice(pool.read(disk, input, p)?.tuples());
        for &t in &scratch {
            if passes(t, selectivity) {
                writer.push(disk, pool, t)?;
            }
        }
    }
    writer.finish(disk, pool)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DataGenSpec};
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn realized_selectivity_tracks_request() {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let input = generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: 50,
                key_domain: 500,
            },
        );
        let total = disk.tuples(input).unwrap() as f64;
        for sel in [0.05, 0.3, 0.8] {
            let mut pool = BufferPool::with_capacity(4);
            let out = filtered_scan(&mut disk, &mut pool, input, sel).unwrap();
            let kept = disk.tuples(out).unwrap() as f64;
            let realized = kept / total;
            assert!(
                (realized - sel).abs() < 0.05,
                "requested {sel}, realized {realized}"
            );
        }
    }

    #[test]
    fn io_cost_is_read_all_write_out() {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(62);
        let input = generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: 40,
                key_domain: 100,
            },
        );
        let mut pool = BufferPool::with_capacity(4);
        let out = filtered_scan(&mut disk, &mut pool, input, 0.25).unwrap();
        let io = pool.counters();
        assert_eq!(io.reads, 40);
        assert_eq!(io.writes as usize, disk.pages(out).unwrap());
    }

    #[test]
    fn edge_selectivities() {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(63);
        let input = generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: 5,
                key_domain: 50,
            },
        );
        let mut pool = BufferPool::with_capacity(4);
        let none = filtered_scan(&mut disk, &mut pool, input, 0.0).unwrap();
        assert_eq!(disk.tuples(none).unwrap(), 0);
        let all = filtered_scan(&mut disk, &mut pool, input, 1.0).unwrap();
        assert_eq!(disk.tuples(all).unwrap(), disk.tuples(input).unwrap());
        assert!(filtered_scan(&mut disk, &mut pool, input, 1.5).is_err());
    }

    #[test]
    fn filter_is_deterministic() {
        let t = Tuple {
            key: 1,
            payload: 42,
        };
        assert_eq!(passes(t, 0.5), passes(t, 0.5));
    }
}
