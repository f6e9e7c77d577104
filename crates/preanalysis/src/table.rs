//! Precomputed relation tables for a fixed set of transaction types.
//!
//! "All transactions that the system executes are instances of one of a
//! number of transaction types. We assume that we know the programs of
//! these transactions and have pre-analyzed them" (§3.1). The scheduler
//! queries conflict/safety relations at every scheduling point, so an
//! [`AnalysisSet`] materializes them once per workload: for every pair of
//! types and every pair of tree nodes, both the conflict relation and the
//! (asymmetric) safety relation.
//!
//! "Even though maintaining the transaction relationship information
//! requires additional space, it is a reasonable approach for RTDBS to
//! trade-off space for better performance" (§3.2.2).

use crate::program::Program;
use crate::relations::{conflict, safety, Conflict, Position, Safety};
use crate::tree::{NodeId, TransactionTree};

/// Index of a transaction type within an [`AnalysisSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TypeId(pub u32);

/// Pre-analyzed trees plus dense relation tables for one workload.
pub struct AnalysisSet {
    trees: Vec<TransactionTree>,
    /// `conflict_tab[a][b]` is a `nodes(a) × nodes(b)` matrix.
    conflict_tab: Vec<Vec<Matrix<Conflict>>>,
    /// `safety_tab[subject][actor]`, `nodes(subject) × nodes(actor)`.
    safety_tab: Vec<Vec<Matrix<Safety>>>,
}

struct Matrix<T> {
    cols: usize,
    cells: Vec<T>,
}

impl<T: Copy> Matrix<T> {
    fn build(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut cells = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                cells.push(f(r, c));
            }
        }
        Matrix { cols, cells }
    }

    #[inline]
    fn get(&self, r: usize, c: usize) -> T {
        self.cells[r * self.cols + c]
    }
}

impl AnalysisSet {
    /// Pre-analyze all `programs`.
    pub fn new(programs: &[Program]) -> Self {
        let trees: Vec<TransactionTree> =
            programs.iter().map(TransactionTree::from_program).collect();
        let n = trees.len();
        let mut conflict_tab = Vec::with_capacity(n);
        let mut safety_tab = Vec::with_capacity(n);
        for a in 0..n {
            let mut crow = Vec::with_capacity(n);
            let mut srow = Vec::with_capacity(n);
            for b in 0..n {
                let (ta, tb) = (&trees[a], &trees[b]);
                crow.push(Matrix::build(ta.node_count(), tb.node_count(), |r, c| {
                    conflict(
                        Position::at(ta, NodeId(r as u32)),
                        Position::at(tb, NodeId(c as u32)),
                    )
                }));
                srow.push(Matrix::build(ta.node_count(), tb.node_count(), |r, c| {
                    safety(
                        Position::at(ta, NodeId(r as u32)),
                        Position::at(tb, NodeId(c as u32)),
                    )
                }));
            }
            conflict_tab.push(crow);
            safety_tab.push(srow);
        }
        AnalysisSet {
            trees,
            conflict_tab,
            safety_tab,
        }
    }

    /// Number of transaction types.
    pub fn type_count(&self) -> usize {
        self.trees.len()
    }

    /// The pre-analyzed tree of a type.
    pub fn tree(&self, ty: TypeId) -> &TransactionTree {
        &self.trees[ty.0 as usize]
    }

    /// All trees, indexed by [`TypeId`].
    pub fn trees(&self) -> &[TransactionTree] {
        &self.trees
    }

    /// Conflict relation between type `a` at `node_a` and type `b` at
    /// `node_b` (O(1) table lookup).
    pub fn conflict_at(&self, a: TypeId, node_a: NodeId, b: TypeId, node_b: NodeId) -> Conflict {
        self.conflict_tab[a.0 as usize][b.0 as usize].get(node_a.0 as usize, node_b.0 as usize)
    }

    /// Safety of `subject` (partially executed, at `node_s`) w.r.t. `actor`
    /// at `node_a` (O(1) table lookup).
    pub fn safety_at(
        &self,
        subject: TypeId,
        node_s: NodeId,
        actor: TypeId,
        node_a: NodeId,
    ) -> Safety {
        self.safety_tab[subject.0 as usize][actor.0 as usize]
            .get(node_s.0 as usize, node_a.0 as usize)
    }

    /// Root-level conflict between two types ("might the types ever
    /// conflict?"), the pessimistic admission test.
    pub fn type_conflict(&self, a: TypeId, b: TypeId) -> Conflict {
        self.conflict_at(a, NodeId::ROOT, b, NodeId::ROOT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::sets::ItemId;

    fn figure1_set() -> AnalysisSet {
        let a = ProgramBuilder::new("A")
            .access(ItemId(0))
            .decision(|d| {
                d.branch(|b| b.access(ItemId(1)).access(ItemId(2)).access(ItemId(3)))
                    .branch(|b| b.access(ItemId(4)).access(ItemId(5)).access(ItemId(6)))
            })
            .build();
        let b = Program::straight_line("B", [ItemId(1), ItemId(2), ItemId(3)]);
        AnalysisSet::new(&[a, b])
    }

    #[test]
    fn tables_match_direct_computation() {
        let set = figure1_set();
        let (a, b) = (TypeId(0), TypeId(1));
        for na in set.tree(a).node_ids() {
            for nb in set.tree(b).node_ids() {
                let direct = conflict(Position::at(set.tree(a), na), Position::at(set.tree(b), nb));
                assert_eq!(set.conflict_at(a, na, b, nb), direct);
                let direct_s = safety(Position::at(set.tree(a), na), Position::at(set.tree(b), nb));
                assert_eq!(set.safety_at(a, na, b, nb), direct_s);
            }
        }
    }

    #[test]
    fn paper_relations_via_table() {
        let set = figure1_set();
        let (a, b) = (TypeId(0), TypeId(1));
        let ta = set.tree(a);
        assert_eq!(set.type_conflict(a, b), Conflict::Conditional);
        let aa = ta.find("Aa").unwrap();
        let ab = ta.find("Ab").unwrap();
        assert_eq!(set.conflict_at(a, aa, b, NodeId::ROOT), Conflict::Conflicts);
        assert_eq!(set.conflict_at(a, ab, b, NodeId::ROOT), Conflict::None);
        // B fully executed vs actor A at Aa: unsafe.
        assert_eq!(set.safety_at(b, NodeId::ROOT, a, aa), Safety::Unsafe);
        assert_eq!(set.safety_at(b, NodeId::ROOT, a, ab), Safety::Safe);
    }

    #[test]
    fn symmetric_conflict_in_tables() {
        let set = figure1_set();
        let (a, b) = (TypeId(0), TypeId(1));
        for na in set.tree(a).node_ids() {
            for nb in set.tree(b).node_ids() {
                assert_eq!(set.conflict_at(a, na, b, nb), set.conflict_at(b, nb, a, na));
            }
        }
    }

    #[test]
    fn straight_line_fifty_types() {
        // The paper's workload shape: 50 straight-line types.
        let programs: Vec<Program> = (0..50)
            .map(|k| {
                Program::straight_line(format!("T{k}"), (0..5u32).map(|i| ItemId((k * 3 + i) % 30)))
            })
            .collect();
        let set = AnalysisSet::new(&programs);
        assert_eq!(set.type_count(), 50);
        // Every type tree is a single vertex.
        for t in set.trees() {
            assert_eq!(t.node_count(), 1);
        }
        // Conflict is symmetric, and self-conflict always holds (a type
        // shares its own items).
        for i in 0..50u32 {
            assert_eq!(set.type_conflict(TypeId(i), TypeId(i)), Conflict::Conflicts);
        }
    }
}
