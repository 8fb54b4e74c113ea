//! Tuples and pages.

/// Number of tuples per page. Small enough that realistic page counts stay
/// fast to simulate, large enough that per-page overheads are realistic.
pub const PAGE_CAPACITY: usize = 64;

/// A tuple: one join attribute plus an opaque payload (used to trace tuple
/// provenance through joins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    /// The join attribute.
    pub key: u64,
    /// Provenance payload.
    pub payload: u64,
}

/// A fixed-capacity page of tuples. `Page::default()` is an empty page
/// that has not allocated yet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Page {
    tuples: Vec<Tuple>,
}

impl Page {
    /// An empty page with room for [`PAGE_CAPACITY`] tuples, so filling it
    /// takes one allocation.
    pub fn new() -> Self {
        Self {
            tuples: Vec::with_capacity(PAGE_CAPACITY),
        }
    }

    /// The tuples on the page.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples on the page.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the page holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// True when no further tuple fits.
    fn is_full(&self) -> bool {
        self.tuples.len() >= PAGE_CAPACITY
    }

    /// Appends a tuple; returns `false` (and does not append) if full.
    pub fn push(&mut self, t: Tuple) -> bool {
        if self.is_full() {
            false
        } else {
            self.tuples.push(t);
            true
        }
    }
}

/// Packs a tuple stream into full pages.
pub fn pack_pages(tuples: impl IntoIterator<Item = Tuple>) -> Vec<Page> {
    let mut pages = Vec::new();
    let mut cur = Page::new();
    for t in tuples {
        if !cur.push(t) {
            pages.push(std::mem::replace(&mut cur, Page::new()));
            cur.push(t);
        }
    }
    if !cur.is_empty() {
        pages.push(cur);
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_capacity_enforced() {
        let mut p = Page::new();
        for i in 0..PAGE_CAPACITY {
            assert!(p.push(Tuple {
                key: i as u64,
                payload: 0
            }));
        }
        assert!(p.is_full());
        assert!(!p.push(Tuple {
            key: 999,
            payload: 0
        }));
        assert_eq!(p.len(), PAGE_CAPACITY);
    }

    #[test]
    fn pack_pages_fills_and_flushes() {
        let n = PAGE_CAPACITY * 2 + 5;
        let pages = pack_pages((0..n as u64).map(|k| Tuple { key: k, payload: 0 }));
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[0].len(), PAGE_CAPACITY);
        assert_eq!(pages[2].len(), 5);
        let total: usize = pages.iter().map(Page::len).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn pack_empty_stream() {
        assert!(pack_pages(std::iter::empty()).is_empty());
    }
}
