//! Control-flow graphs for the abstract interpreter.
//!
//! Generated kernel [`Program`]s are straight-line micro-op sequences whose
//! structure lives in their phase tags: blocks are the phase segments,
//! edges the fall-throughs between them. Their CFGs are chains, which the
//! engine solves exactly (no widening, no precision loss) — the property
//! the clean-catalog `proved` verdicts rest on. [`Cfg::synthetic`] builds
//! arbitrary graphs, loops included, for the tests that drive joins and
//! widening.

use osarch_cpu::Program;

/// One basic block: a half-open op-index range plus its CFG edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Index of the first op in the block.
    pub start: usize,
    /// One past the index of the last op in the block.
    pub end: usize,
    /// Successor block indices, in the order the edges were built.
    pub succs: Vec<usize>,
    /// Predecessor block indices, ascending.
    pub preds: Vec<usize>,
}

impl Block {
    /// The op indices this block covers.
    pub fn ops(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// A control-flow graph over a program's op indices. Block 0 is the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// The program name the graph was built from (labels diagnostics).
    pub name: String,
    /// Total op count of the underlying program.
    pub op_count: usize,
    /// The basic blocks, ordered by `start`.
    pub blocks: Vec<Block>,
}

impl Cfg {
    /// Number of edges in the graph.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.blocks.iter().map(|b| b.succs.len()).sum()
    }

    /// Whether the graph has a back edge (an edge to a block that starts
    /// at or before the source block) — the loop test that decides whether
    /// widening can ever be needed.
    #[cfg(test)]
    #[must_use]
    pub fn has_back_edge(&self) -> bool {
        self.blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.succs.iter().any(|&s| s <= i))
    }

    /// The block containing op index `op`, if any.
    #[cfg(test)]
    #[must_use]
    pub fn block_of(&self, op: usize) -> Option<usize> {
        self.blocks.iter().position(|b| b.start <= op && op < b.end)
    }

    /// Build the straight-line CFG of a generated kernel program: one
    /// block per phase segment, fall-through edges between consecutive
    /// segments. An empty program yields a single empty entry block so the
    /// engine always has somewhere to start.
    #[must_use]
    pub fn from_kernel(program: &Program) -> Cfg {
        let ops = program.ops();
        let mut blocks: Vec<Block> = Vec::new();
        let mut start = 0usize;
        for i in 1..ops.len() {
            if ops[i].0 != ops[i - 1].0 {
                blocks.push(Block {
                    start,
                    end: i,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
                start = i;
            }
        }
        blocks.push(Block {
            start,
            end: ops.len(),
            succs: Vec::new(),
            preds: Vec::new(),
        });
        let count = blocks.len();
        for (i, block) in blocks.iter_mut().enumerate() {
            if i + 1 < count {
                block.succs.push(i + 1);
            }
            if i > 0 {
                block.preds.push(i - 1);
            }
        }
        Cfg {
            name: program.name().to_string(),
            op_count: ops.len(),
            blocks,
        }
    }

    /// A hand-built CFG for tests and synthetic loop programs: `ranges`
    /// are the block op ranges, `edges` the `(from, to)` pairs.
    ///
    /// # Panics
    ///
    /// Panics when an edge names a block out of range.
    #[must_use]
    pub fn synthetic(
        name: &str,
        op_count: usize,
        ranges: &[(usize, usize)],
        edges: &[(usize, usize)],
    ) -> Cfg {
        let mut blocks: Vec<Block> = ranges
            .iter()
            .map(|&(start, end)| Block {
                start,
                end,
                succs: Vec::new(),
                preds: Vec::new(),
            })
            .collect();
        for &(from, to) in edges {
            assert!(
                from < blocks.len() && to < blocks.len(),
                "edge out of range"
            );
            blocks[from].succs.push(to);
            blocks[to].preds.push(from);
        }
        for block in &mut blocks {
            block.preds.sort_unstable();
            block.preds.dedup();
        }
        Cfg {
            name: name.to_string(),
            op_count,
            blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osarch_cpu::{MicroOp, Phase};

    #[test]
    fn kernel_cfg_is_a_chain_of_phase_segments() {
        let mut b = Program::builder("chain");
        b.phase(Phase::EntryExit).op(MicroOp::TrapEnter);
        b.phase(Phase::CallPrep).alu(3);
        b.phase(Phase::EntryExit).op(MicroOp::TrapReturn);
        let cfg = Cfg::from_kernel(&b.build());
        assert_eq!(cfg.blocks.len(), 3);
        assert_eq!(cfg.edge_count(), 2);
        assert!(!cfg.has_back_edge());
        assert_eq!(cfg.blocks[0].succs, vec![1]);
        assert_eq!(cfg.blocks[2].preds, vec![1]);
        assert_eq!(cfg.block_of(2), Some(1));
    }

    #[test]
    fn empty_programs_still_have_an_entry_block() {
        let cfg = Cfg::from_kernel(&Program::builder("empty").build());
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.op_count, 0);
    }
}
