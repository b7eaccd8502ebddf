//! Clause storage.
//!
//! [`ClauseDb`] keeps one fixed-size header per clause (learnt flag,
//! LBD, activity and the span of its literals) and every clause's
//! literals back to back in one flat arena, so storing a clause
//! allocates nothing once the arena has grown. A [`ClauseRef`] is a
//! header index: it never moves, and a deleted clause keeps its (now
//! empty) header, so handles, the header order and [`ClauseDb::len`]
//! are stable for the database's lifetime. A deleted clause's literals
//! stay in the arena as waste until the waste reaches half of it; the
//! next [`ClauseDb::add`] then compacts the arena, sliding the live
//! clauses down in header order and rewriting their spans.

use crate::lit::Lit;

/// A reference to a clause: the index of its header in the clause
/// database.
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
struct Header {
    /// Offset of the first literal in the arena.
    start: u32,
    /// Literal count; zero once deleted.
    len: u32,
    learnt: bool,
    deleted: bool,
    /// Literal-block distance at learning time (glue); lower is better.
    lbd: u32,
    activity: f64,
}

/// Clause headers plus the literal arena. See the module docs.
#[derive(Default, Debug)]
pub struct ClauseDb {
    headers: Vec<Header>,
    /// Live clauses' literals in header order, with the deleted ones'
    /// literals left in place until the next compaction.
    arena: Vec<Lit>,
    /// Arena slots held by deleted clauses.
    wasted: usize,
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
    /// are handled at the solver level, never stored. Also panics if the
    /// live literals would pass 2^32, the reach of a header's span.
    pub fn add(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        assert!(lits.len() >= 2, "stored clauses must have >= 2 literals");
        if self.wasted * 2 >= self.arena.len().max(1) {
            self.compact();
        }
        u32::try_from(self.arena.len() + lits.len()).expect("clause arena outgrew u32 offsets");
        if learnt {
            self.num_learnt += 1;
        }
        let idx = self.headers.len() as u32;
        self.headers.push(Header {
            start: self.arena.len() as u32,
            len: lits.len() as u32,
            learnt,
            deleted: false,
            lbd,
            activity: 0.0,
        });
        self.arena.extend_from_slice(lits);
        ClauseRef(idx)
    }

    /// Slides every live clause's literals down over the waste, keeping
    /// header order, so the arena holds live literals only.
    fn compact(&mut self) {
        let mut write = 0;
        for h in &mut self.headers {
            let start = h.start as usize;
            self.arena.copy_within(start..start + h.len as usize, write);
            h.start = write as u32;
            write += h.len as usize;
        }
        self.arena.truncate(write);
        self.wasted = 0;
    }

    /// The clause's literals; empty once it is deleted.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let h = &self.headers[cref.0 as usize];
        &self.arena[h.start as usize..(h.start + h.len) as usize]
    }

    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let h = &self.headers[cref.0 as usize];
        &mut self.arena[h.start as usize..(h.start + h.len) as usize]
    }

    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.headers[cref.0 as usize].learnt
    }

    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.headers[cref.0 as usize].deleted
    }

    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.headers[cref.0 as usize].lbd
    }

    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f64 {
        self.headers[cref.0 as usize].activity
    }

    #[inline]
    pub fn bump_activity(&mut self, cref: ClauseRef, inc: f64) -> f64 {
        let h = &mut self.headers[cref.0 as usize];
        h.activity += inc;
        h.activity
    }

    /// Rescales all learnt-clause activities by `factor`.
    pub fn rescale_activities(&mut self, factor: f64) {
        for h in &mut self.headers {
            h.activity *= factor;
        }
    }

    /// Marks a clause as deleted. Its arena slots are reclaimed by a
    /// later compaction.
    pub fn delete(&mut self, cref: ClauseRef) {
        let h = &mut self.headers[cref.0 as usize];
        if !h.deleted {
            h.deleted = true;
            if h.learnt {
                self.num_learnt -= 1;
            }
            self.wasted += h.len as usize;
            h.len = 0;
        }
    }

    /// Live learnt clause count.
    #[inline]
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// All live learnt clause handles, in header order, for reduction.
    pub fn learnt_refs(&self) -> Vec<ClauseRef> {
        self.headers
            .iter()
            .enumerate()
            .filter(|(_, h)| h.learnt && !h.deleted)
            .map(|(i, _)| ClauseRef(i as u32))
            .collect()
    }

    /// Total clause headers (live + deleted), a rough memory metric.
    #[inline]
    pub fn len(&self) -> usize {
        self.headers.len()
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
        let c = db.add(&lits(&[1, -2, 3]), false, 0);
        assert_eq!(db.lits(c).len(), 3);
        assert!(!db.is_learnt(c));
        assert!(!db.is_deleted(c));
    }

    #[test]
    fn learnt_accounting() {
        let mut db = ClauseDb::new();
        let a = db.add(&lits(&[1, 2]), true, 2);
        let _b = db.add(&lits(&[2, 3]), true, 3);
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
        let a = db.add(&lits(&[1, 2, 3]), true, 5);
        assert_eq!(db.lbd(a), 5);
        db.delete(a);
        // Lazy deletion: the header stays, so handles never move.
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn activity_bump_and_rescale() {
        let mut db = ClauseDb::new();
        let a = db.add(&lits(&[1, 2]), true, 2);
        db.bump_activity(a, 1.5);
        db.rescale_activities(0.5);
        assert!((db.activity(a) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn live_clauses_read_back_across_compactions() {
        let mut db = ClauseDb::new();
        let clause = |i: i32| lits(&[i + 1, -(i + 2), i + 3, -(i % 5 + 1)][..2 + i as usize % 3]);
        let mut live: Vec<(ClauseRef, Vec<Lit>)> = Vec::new();
        let mut dead: Vec<ClauseRef> = Vec::new();
        let mut compactions = 0;
        for i in 0..400 {
            let wasted_before = db.wasted;
            let c = db.add(&clause(i), i % 2 == 0, 2);
            live.push((c, clause(i)));
            if wasted_before > 0 && db.wasted == 0 {
                // Compacted: the arena holds exactly the live literals.
                compactions += 1;
                let live_lits: usize = live.iter().map(|(_, l)| l.len()).sum();
                assert_eq!(db.arena.len(), live_lits);
            }
            // Past 24 live clauses, delete one from a varying position.
            if live.len() > 24 {
                let (c, _) = live.remove(i as usize * 7 % live.len());
                db.delete(c);
                dead.push(c);
            }
            for (c, want) in &live {
                assert_eq!(db.lits(*c), &want[..], "clause {c:?} after {i} adds");
            }
            for &c in &dead {
                assert!(db.is_deleted(c) && db.lits(c).is_empty(), "{c:?}");
            }
        }
        assert!(compactions >= 5, "only {compactions} compactions");
        assert_eq!(db.len(), 400, "headers are never reclaimed");
        // Handles stay header indices, so learnt order is header order.
        let mut expect: Vec<ClauseRef> = live
            .iter()
            .map(|&(c, _)| c)
            .filter(|&c| db.is_learnt(c))
            .collect();
        expect.sort_by_key(|c| c.0);
        assert_eq!(db.learnt_refs(), expect);
    }

    #[test]
    #[should_panic(expected = ">= 2 literals")]
    fn rejects_unit_clause() {
        let mut db = ClauseDb::new();
        db.add(&lits(&[1]), false, 0);
    }
}
