//! Measurement arithmetic: nearest-rank percentiles and the tail-sample
//! rule, span self time, the process's peak resident memory, and the
//! reference kernel that scales every timing to a fixed host speed.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based rank of the nearest-rank `pct`th percentile of `n` samples: the
/// smallest rank with at least `pct`% of the samples at or below it.
pub fn rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(100).max(1)
}

/// Samples strictly beyond the nearest-rank `pct`th percentile of `n`.
pub fn beyond(n: usize, pct: usize) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// Fewest samples that leave `MIN_BEYOND` beyond the `pct`th percentile.
pub fn min_samples(pct: usize) -> usize {
    assert!(pct < 100, "no sample lies beyond the 100th percentile");
    (1..)
        .find(|&n| beyond(n, pct) >= MIN_BEYOND)
        .expect("reached for every pct below 100")
}

/// Nearest-rank `pct`th percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[u64], pct: usize) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), pct).min(sorted.len()) - 1])
}

/// A span's self time: its duration minus the part of it the union of its
/// children covers. Overlapping children count once; the parts of a child
/// outside the parent do not count.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    pe.saturating_sub(ps).saturating_sub(covered)
}

/// Lays replayed child spans onto the clock of the serve span they replay:
/// each child is `(lane, duration)`, in record order. Lane 0 (the caller)
/// runs back to back from `start`; every other lane (a worker) runs back to
/// back from where lane 0 ends, so worker lanes overlap one another the way
/// the workers themselves ran side by side.
pub fn lay_out(start: u64, children: &[(usize, u64)]) -> Vec<(u64, u64)> {
    let caller: u64 = children.iter().filter(|c| c.0 == 0).map(|c| c.1).sum();
    let mut cursor: std::collections::BTreeMap<usize, u64> = Default::default();
    children
        .iter()
        .map(|&(lane, d)| {
            let at = cursor
                .entry(lane)
                .or_insert(if lane == 0 { start } else { start + caller });
            let s = *at;
            *at += d;
            (s, s + d)
        })
        .collect()
}

/// The reference kernel's duration at the speed every timing is scaled
/// to: about its median inside this benchmark's runs on a 2-vCPU Xeon
/// (Sapphire Rapids) KVM guest, so scaled timings read close to raw ones
/// there.
pub const REFERENCE_NS: f64 = 2.0e6;

/// A fixed piece of work with the serving loop's own mix of string keys,
/// ordered-map inserts and clones, hashing, float arithmetic and sorting.
/// Returns a checksum, so the work cannot be optimized away; the work and
/// the checksum are the same on every call.
pub fn reference_work() -> u64 {
    use std::collections::{BTreeMap, HashMap};
    use std::hash::{BuildHasherDefault, DefaultHasher};
    let mut sum = 0u64;
    for r in 0..7u64 {
        let mut m: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..300u64 {
            let key = format!("t{:02}.k{i}", (i * 7 + r) % 97);
            m.insert(key, (0..8).map(|j| (i * j) as f64 * 0.5).collect());
        }
        let copy = m.clone();
        let mut h: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for (i, (k, v)) in copy.iter().enumerate() {
            h.insert(
                k.len() as u64 * 1009 + i as u64,
                v.iter().map(|x| x.sqrt()).sum(),
            );
        }
        let mut f: Vec<f64> = h.values().chain(copy.values().flatten()).copied().collect();
        f.sort_by(f64::total_cmp);
        sum = sum
            .wrapping_mul(31)
            .wrapping_add(f.len() as u64 + f[f.len() / 2].to_bits());
    }
    sum
}

/// Runs [`reference_work`] once and returns its wall time in ns.
pub fn reference_kernel() -> u64 {
    let clock = std::time::Instant::now();
    std::hint::black_box(reference_work());
    clock.elapsed().as_nanos() as u64
}

/// How much faster than the reference speed the host ran a stretch of
/// work, judged by the reference kernel run just before and just after it.
/// Multiplying a duration by it gives the duration at reference speed.
pub fn host_factor(before_ns: u64, after_ns: u64) -> f64 {
    REFERENCE_NS / ((before_ns + after_ns) as f64 / 2.0).max(1.0)
}

/// A timed stretch cut into slices, with the reference kernel run before
/// the first slice and after every slice. A co-tenant on a shared host can
/// slow this process by a third for seconds at a time; the kernels beside a
/// slice slow with it, so scaling each slice by its [`host_factor`] reads
/// the program's own speed. The kernels themselves are off the clock. The
/// kernel runs on the caller's thread, so this holds only while the
/// program does its work on that thread too.
pub struct Slices {
    /// Kernel durations: one before the first slice, one after each.
    kernels: Vec<u64>,
    /// Per slice: samples recorded when it ended, and its wall time.
    cuts: Vec<(usize, u64)>,
    clock: std::time::Instant,
}

impl Slices {
    /// Runs the first kernel and starts the first slice.
    pub fn start() -> Self {
        let kernels = vec![reference_kernel()];
        Slices {
            kernels,
            cuts: Vec::new(),
            clock: std::time::Instant::now(),
        }
    }

    /// The kernel duration measured before the first slice.
    pub fn first_kernel(&self) -> u64 {
        self.kernels[0]
    }

    /// Ends the current slice, with `samples` latency samples recorded so
    /// far, runs the kernel, and starts the next slice.
    pub fn cut(&mut self, samples: usize) {
        let wall = self.clock.elapsed().as_nanos() as u64;
        self.cuts.push((samples, wall));
        self.kernels.push(reference_kernel());
        self.clock = std::time::Instant::now();
    }

    /// Scales each latency sample by its slice's host factor, in place, and
    /// returns `(raw wall ns, scaled wall ns)` summed over the slices.
    /// Samples past the last cut are left as they are.
    pub fn scale(&self, latencies: &mut [u64]) -> (u64, f64) {
        let (mut raw, mut scaled, mut from) = (0, 0.0, 0);
        for (i, &(to, wall)) in self.cuts.iter().enumerate() {
            let f = host_factor(self.kernels[i], self.kernels[i + 1]);
            for l in &mut latencies[from..to] {
                *l = (*l as f64 * f).round() as u64;
            }
            raw += wall;
            scaled += wall as f64 * f;
            from = to;
        }
        (raw, scaled)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), where the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), Some(50));
        assert_eq!(percentile(&v, 99), Some(99));
        assert_eq!(percentile(&v, 1), Some(1));
        assert_eq!(percentile(&[7], 50), Some(7));
        assert_eq!(percentile(&[7], 99), Some(7));
        assert_eq!(percentile(&[], 50), None);
        // An even count takes the lower middle, never an interpolation.
        assert_eq!(percentile(&[1, 2, 3, 4], 50), Some(2));
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99), Some(990));
    }

    #[test]
    fn ten_samples_lie_beyond_a_reported_tail() {
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
        assert_eq!(min_samples(99), 1000);
        assert_eq!(min_samples(50), 20);
        assert_eq!(beyond(19, 50), 9);
        // Exact integer arithmetic: no float rounding at the boundary.
        assert_eq!(rank(100, 99), 99);
        assert_eq!(rank(101, 99), 100);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once: [10, 40) covers 30.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40)]), 70);
        // A child nested in another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Touching children merge without double counting.
        assert_eq!(self_time((0, 100), &[(10, 20), (20, 30)]), 80);
        // Parts outside the parent are clipped away.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // Fully covered parent.
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
        // Order of the children does not matter.
        assert_eq!(
            self_time((0, 100), &[(60, 90), (10, 30), (20, 40)]),
            self_time((0, 100), &[(10, 30), (20, 40), (60, 90)])
        );
    }

    #[test]
    fn slices_scale_by_the_kernels_beside_them() {
        let r = REFERENCE_NS as u64;
        let s = Slices {
            kernels: vec![r, r, 2 * r],
            cuts: vec![(2, 100), (4, 300)],
            clock: std::time::Instant::now(),
        };
        // Slice 0 ran at reference speed; slice 1 sat between kernels that
        // averaged 1.5× the reference time, so it scales by 2/3.
        let mut lat = vec![10, 20, 30, 45, 7];
        let (raw, scaled) = s.scale(&mut lat);
        assert_eq!(raw, 400);
        assert!((scaled - 300.0).abs() < 1e-9, "{scaled}");
        // The sample past the last cut is left alone.
        assert_eq!(lat, vec![10, 20, 20, 30, 7]);
        assert_eq!(host_factor(r, r), 1.0);
        assert_eq!(host_factor(r / 2, r / 2), 2.0);
    }

    #[test]
    fn reference_work_is_fixed() {
        assert_eq!(reference_work(), reference_work());
    }

    #[test]
    fn replayed_children_are_laid_per_lane() {
        // One caller lane: back to back from the serve's start.
        assert_eq!(
            lay_out(100, &[(0, 10), (0, 5)]),
            vec![(100, 110), (110, 115)]
        );
        // Two worker lanes start together after the caller's work, so their
        // overlap counts once: 10 + max(30, 20) = 40 of the serve's 100.
        let laid = lay_out(0, &[(0, 10), (1, 20), (2, 20), (1, 10)]);
        assert_eq!(laid, vec![(0, 10), (10, 30), (10, 30), (30, 40)]);
        assert_eq!(self_time((0, 100), &laid), 60);
        // Replay longer than the serve: clipped, never negative.
        assert_eq!(self_time((0, 25), &lay_out(0, &[(0, 40)])), 0);
    }
}
