//! Small-support inline storage for [`crate::Distribution`].
//!
//! The paper's bucketed distributions are tiny by design — §3.7 argues for
//! a handful of level-set buckets, and `alg_d` rebuckets size distributions
//! back to 8 points after every product. Storing the support and the
//! probability vector inline (no heap) whenever `b ≤ 8` makes cloning a
//! rebucketed distribution allocation-free; larger supports (fine-grained
//! inputs, un-rebucketed products) spill to a `Vec`.

/// Supports of at most this many points are stored inline.
pub(crate) const INLINE_CAP: usize = 8;

/// A `Vec<f64>`-like buffer that stores up to [`INLINE_CAP`] elements
/// inline. Read access is through `Deref<Target = [f64]>`.
#[derive(Debug, Clone)]
pub(crate) enum SmallBuf {
    /// Inline storage: the first `len` slots of `buf` are live.
    Inline {
        /// Number of live elements (≤ [`INLINE_CAP`]).
        len: u8,
        /// Backing array; slots past `len` are meaningless.
        buf: [f64; INLINE_CAP],
    },
    /// Heap storage for supports larger than [`INLINE_CAP`].
    Heap(Vec<f64>),
}

impl SmallBuf {
    /// Builds from an owned vector, copying inline when it fits.
    pub(crate) fn from_vec(v: Vec<f64>) -> Self {
        if v.len() <= INLINE_CAP {
            let mut buf = [0.0; INLINE_CAP];
            buf[..v.len()].copy_from_slice(&v);
            SmallBuf::Inline {
                len: v.len() as u8,
                buf,
            }
        } else {
            SmallBuf::Heap(v)
        }
    }

    /// The live elements as a slice.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f64] {
        match self {
            SmallBuf::Inline { len, buf } => &buf[..*len as usize],
            SmallBuf::Heap(v) => v,
        }
    }

    /// True when the elements live inline (no heap allocation).
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self, SmallBuf::Inline { .. })
    }
}

impl std::ops::Deref for SmallBuf {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl PartialEq for SmallBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_slices_stay_inline() {
        let b = SmallBuf::from_vec(vec![1.0, 2.0, 3.0]);
        assert!(b.is_inline());
        assert_eq!(&*b, &[1.0, 2.0, 3.0]);
        let c = b.clone();
        assert!(c.is_inline());
        assert_eq!(b, c);
    }

    #[test]
    fn exactly_cap_is_inline_one_more_spills() {
        let at_cap: Vec<f64> = (0..INLINE_CAP).map(|i| i as f64).collect();
        assert!(SmallBuf::from_vec(at_cap.clone()).is_inline());
        let over: Vec<f64> = (0..=INLINE_CAP).map(|i| i as f64).collect();
        let spilled = SmallBuf::from_vec(over.clone());
        assert!(!spilled.is_inline());
        assert_eq!(&*spilled, &over[..]);
    }

    #[test]
    fn equality_ignores_representation() {
        let a = SmallBuf::from_vec(vec![1.0, 2.0]);
        let b = SmallBuf::Heap(vec![1.0, 2.0]);
        assert_eq!(a, b);
    }
}
