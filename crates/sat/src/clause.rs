//! Clause storage.
//!
//! Clauses live in a single arena ([`ClauseDb`]) and are addressed by
//! [`ClauseRef`] indices, which stay valid across garbage collection via a
//! relocation table. Each clause stores a small header (learnt flag, LBD,
//! activity) followed by its literals.

use crate::lit::Lit;

/// A reference to a clause inside the [`ClauseDb`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// Sentinel used for "no reason clause".
    pub const UNDEF: ClauseRef = ClauseRef(u32::MAX);

    #[inline]
    pub fn is_undef(self) -> bool {
        self == ClauseRef::UNDEF
    }
}

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    /// Literal-block distance at learning time (glue); lower is better.
    lbd: u32,
    activity: f64,
    deleted: bool,
}

/// Arena of clauses with O(1) access and mark-and-sweep garbage collection.
#[derive(Default, Debug)]
pub struct ClauseDb {
    clauses: Vec<Clause>,
    /// Number of live learnt clauses (deleted excluded).
    num_learnt: usize,
}

impl ClauseDb {
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Adds a clause and returns its handle.
    ///
    /// # Panics
    /// Panics if `lits` has fewer than 2 literals: unit and empty clauses
    /// are handled at the solver level, never stored.
    pub fn add(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        assert!(lits.len() >= 2, "stored clauses must have >= 2 literals");
        if learnt {
            self.num_learnt += 1;
        }
        let idx = self.clauses.len() as u32;
        self.clauses.push(Clause {
            lits,
            learnt,
            lbd,
            activity: 0.0,
            deleted: false,
        });
        ClauseRef(idx)
    }

    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        &self.clauses[cref.0 as usize].lits
    }

    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut Vec<Lit> {
        &mut self.clauses[cref.0 as usize].lits
    }

    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.clauses[cref.0 as usize].learnt
    }

    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.clauses[cref.0 as usize].deleted
    }

    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.clauses[cref.0 as usize].lbd
    }

    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f64 {
        self.clauses[cref.0 as usize].activity
    }

    #[inline]
    pub fn bump_activity(&mut self, cref: ClauseRef, inc: f64) -> f64 {
        let c = &mut self.clauses[cref.0 as usize];
        c.activity += inc;
        c.activity
    }

    /// Rescales all learnt-clause activities by `factor`.
    pub fn rescale_activities(&mut self, factor: f64) {
        for c in &mut self.clauses {
            c.activity *= factor;
        }
    }

    /// Marks a clause as deleted. The memory is reclaimed lazily.
    pub fn delete(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref.0 as usize];
        if !c.deleted {
            c.deleted = true;
            if c.learnt {
                self.num_learnt -= 1;
            }
            c.lits = Vec::new();
        }
    }

    /// Live learnt clause count.
    #[inline]
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// All live learnt clause handles, for reduction.
    pub fn learnt_refs(&self) -> Vec<ClauseRef> {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && !c.deleted)
            .map(|(i, _)| ClauseRef(i as u32))
            .collect()
    }

    /// Total clause slots (live + dead), a rough memory metric.
    #[inline]
    pub fn len(&self) -> usize {
        self.clauses.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(ids: &[i32]) -> Vec<Lit> {
        ids.iter()
            .map(|&i| {
                let v = Var::from_index(i.unsigned_abs() as usize);
                v.lit(i < 0)
            })
            .collect()
    }

    #[test]
    fn add_and_read_back() {
        let mut db = ClauseDb::new();
        let c = db.add(lits(&[1, -2, 3]), false, 0);
        assert_eq!(db.lits(c).len(), 3);
        assert!(!db.is_learnt(c));
        assert!(!db.is_deleted(c));
    }

    #[test]
    fn learnt_accounting() {
        let mut db = ClauseDb::new();
        let a = db.add(lits(&[1, 2]), true, 2);
        let _b = db.add(lits(&[2, 3]), true, 3);
        assert_eq!(db.num_learnt(), 2);
        db.delete(a);
        assert_eq!(db.num_learnt(), 1);
        assert!(db.is_deleted(a));
        // Double delete is a no-op.
        db.delete(a);
        assert_eq!(db.num_learnt(), 1);
    }

    #[test]
    fn lbd_and_waste_tracking() {
        let mut db = ClauseDb::new();
        assert_eq!(db.len(), 0);
        let a = db.add(lits(&[1, 2, 3]), true, 5);
        assert_eq!(db.lbd(a), 5);
        db.delete(a);
        // Lazy deletion: the slot stays in the arena.
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn activity_bump_and_rescale() {
        let mut db = ClauseDb::new();
        let a = db.add(lits(&[1, 2]), true, 2);
        db.bump_activity(a, 1.5);
        db.rescale_activities(0.5);
        assert!((db.activity(a) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = ">= 2 literals")]
    fn rejects_unit_clause() {
        let mut db = ClauseDb::new();
        db.add(lits(&[1]), false, 0);
    }
}
