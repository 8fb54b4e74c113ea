//! The simulated disk: a store of page-structured relations.

use crate::error::ExecError;
use crate::tuple::{pack_pages, Page, Tuple};

/// Identifier of a stored relation (base table, run, partition, or result).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub usize);

/// The disk. Relations are append-only page vectors; temporary relations
/// (sort runs, hash partitions) can be dropped to reclaim space.
#[derive(Debug, Default)]
pub struct Disk {
    relations: Vec<Vec<Page>>,
}

impl Disk {
    /// An empty disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty relation and returns its id.
    pub fn create(&mut self) -> RelId {
        self.relations.push(Vec::new());
        RelId(self.relations.len() - 1)
    }

    /// Stores a tuple stream as a new relation (bypasses the buffer pool:
    /// used for *loading* base data, which no experiment charges for).
    pub fn load(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> RelId {
        self.relations.push(pack_pages(tuples));
        RelId(self.relations.len() - 1)
    }

    /// Number of pages in a relation.
    pub fn pages(&self, rel: RelId) -> Result<usize, ExecError> {
        self.rel(rel).map(Vec::len)
    }

    /// Total tuples in a relation.
    pub fn tuples(&self, rel: RelId) -> Result<usize, ExecError> {
        Ok(self.rel(rel)?.iter().map(Page::len).sum())
    }

    /// Reads a page directly (no accounting; the buffer pool is the
    /// accounted path).
    pub fn page(&self, rel: RelId, idx: usize) -> Result<&Page, ExecError> {
        let pages = self.rel(rel)?;
        pages.get(idx).ok_or(ExecError::PageOutOfRange {
            rel: rel.0,
            page: idx,
            len: pages.len(),
        })
    }

    /// Appends a page (no accounting).
    pub fn append(&mut self, rel: RelId, page: Page) -> Result<usize, ExecError> {
        let pages = self.rel_mut(rel)?;
        pages.push(page);
        Ok(pages.len() - 1)
    }

    /// Number of relations created so far. Taken before an execution, it
    /// is the mark [`Disk::drop_from`] rolls back to.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Drops every relation created at or after `mark` (a
    /// [`Disk::relation_count`] taken earlier), reclaiming an execution's
    /// temporaries: filtered scans, sort runs, partitions and results.
    /// Their ids become unknown, and later [`Disk::create`] calls hand
    /// them out again. A `mark` past the end is a no-op.
    pub fn drop_from(&mut self, mark: usize) {
        self.relations.truncate(mark);
    }

    /// Drops a temporary relation's pages (the id stays valid but empty).
    pub fn truncate(&mut self, rel: RelId) -> Result<(), ExecError> {
        self.rel_mut(rel)?.clear();
        Ok(())
    }

    /// Moves all pages of `src` to the end of `dst` without any I/O
    /// accounting (a logical rename: the pages were already paid for when
    /// written).
    pub fn move_pages(&mut self, dst: RelId, src: RelId) -> Result<(), ExecError> {
        if dst == src {
            return Ok(());
        }
        let pages = std::mem::take(self.rel_mut(src)?);
        self.rel_mut(dst)?.extend(pages);
        Ok(())
    }

    /// Collects all tuples of a relation (test/oracle path, unaccounted).
    pub fn all_tuples(&self, rel: RelId) -> Result<Vec<Tuple>, ExecError> {
        Ok(self
            .rel(rel)?
            .iter()
            .flat_map(|p| p.tuples().iter().copied())
            .collect())
    }

    fn rel(&self, rel: RelId) -> Result<&Vec<Page>, ExecError> {
        self.relations
            .get(rel.0)
            .ok_or(ExecError::UnknownRelation(rel.0))
    }

    fn rel_mut(&mut self, rel: RelId) -> Result<&mut Vec<Page>, ExecError> {
        self.relations
            .get_mut(rel.0)
            .ok_or(ExecError::UnknownRelation(rel.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::PAGE_CAPACITY;

    #[test]
    fn load_and_inspect() {
        let mut d = Disk::new();
        let r = d.load((0..150u64).map(|k| Tuple { key: k, payload: k }));
        assert_eq!(d.pages(r).unwrap(), 150usize.div_ceil(PAGE_CAPACITY));
        assert_eq!(d.tuples(r).unwrap(), 150);
        assert_eq!(d.page(r, 0).unwrap().len(), PAGE_CAPACITY);
        assert!(d.page(r, 99).is_err());
        assert!(d.pages(RelId(42)).is_err());
    }

    #[test]
    fn append_and_truncate() {
        let mut d = Disk::new();
        let r = d.create();
        let mut p = Page::new();
        p.push(Tuple { key: 1, payload: 2 });
        assert_eq!(d.append(r, p).unwrap(), 0);
        assert_eq!(d.tuples(r).unwrap(), 1);
        d.truncate(r).unwrap();
        assert_eq!(d.pages(r).unwrap(), 0);
    }

    #[test]
    fn drop_from_rolls_back_to_a_mark() {
        let mut d = Disk::new();
        let base = d.load((0..10u64).map(|k| Tuple { key: k, payload: k }));
        let mark = d.relation_count();
        let tmp = d.load((0..10u64).map(|k| Tuple { key: k, payload: k }));
        d.create();
        assert_eq!(d.relation_count(), mark + 2);
        d.drop_from(mark);
        assert_eq!(d.relation_count(), mark);
        assert!(matches!(d.pages(tmp), Err(ExecError::UnknownRelation(_))));
        assert_eq!(d.tuples(base).unwrap(), 10);
        // The dropped id is handed out again.
        assert_eq!(d.create(), tmp);
        d.drop_from(usize::MAX);
        assert_eq!(d.relation_count(), mark + 1);
    }
}
