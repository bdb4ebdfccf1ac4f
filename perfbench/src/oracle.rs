//! Oracles: every expected answer, computed from the generated inputs alone
//! in plain Rust. Nothing here calls into the runtime or a substrate (a
//! test in `tests/cli.rs` checks that this file names no `alphonse` crate),
//! so a fault in the system under test cannot hide in its own checker.

use rand::rngs::SmallRng;
use rand::Rng;

/// Marks a missing child in [`Shape`].
pub const NIL: u32 = u32::MAX;

/// Mirror of the `sheet_bulk` grid: `width` reference chains of `depth`
/// rows plus a row of `SUM` cells over windows of the chains' bottom cells.
///
/// Cell `(c, 0)` is the constant `heads[c]`; cell `(c, r)` for `r >= 1` is
/// `(src(c, r), r - 1) + add(c, r)`, so every reference points one row up
/// and the grid is acyclic whatever the sources are. Sum cell `s` sits at
/// `(s, depth)` and adds the bottom cells `sum_starts[s] .. + sum_width`.
#[derive(Clone)]
pub struct Grid {
    pub width: u32,
    pub depth: u32,
    pub heads: Vec<i64>,
    /// Row-major over rows `0..depth`; row 0 is unused.
    pub src: Vec<u32>,
    pub add: Vec<i64>,
    pub sum_starts: Vec<u32>,
    pub sum_width: u32,
}

impl Grid {
    pub fn random(width: u32, depth: u32, sums: u32, sum_width: u32, rng: &mut SmallRng) -> Grid {
        let cells = (width * depth) as usize;
        Grid {
            width,
            depth,
            heads: (0..width).map(|_| rng.gen_range(0..1000)).collect(),
            src: (0..cells as u32).map(|i| i % width).collect(),
            add: (0..cells).map(|_| rng.gen_range(0..10)).collect(),
            // Evenly spaced windows: the fan-in shape is the same for every
            // seed, so seeds change values and edits, not the work per edit.
            sum_starts: (0..sums)
                .map(|s| s * (width - sum_width) / (sums - 1).max(1))
                .collect(),
            sum_width,
        }
    }

    pub fn idx(&self, col: u32, row: u32) -> usize {
        (row * self.width + col) as usize
    }

    /// Values of the bottom chain row, by column.
    pub fn bottoms(&self) -> Vec<i64> {
        let mut row = self.heads.clone();
        let mut next = vec![0; self.width as usize];
        for r in 1..self.depth {
            for c in 0..self.width {
                let i = self.idx(c, r);
                next[c as usize] = row[self.src[i] as usize] + self.add[i];
            }
            std::mem::swap(&mut row, &mut next);
        }
        row
    }

    /// Values of the sum cells, given the bottom row.
    pub fn sums(&self, bottoms: &[i64]) -> Vec<i64> {
        self.sum_starts
            .iter()
            .map(|&s| {
                bottoms[s as usize..(s + self.sum_width) as usize]
                    .iter()
                    .sum()
            })
            .collect()
    }
}

/// Mirror of a binary tree shape, nodes numbered in pre-order (children
/// after their parent), root = node 0.
#[derive(Clone)]
pub struct Shape {
    pub left: Vec<u32>,
    pub right: Vec<u32>,
}

impl Shape {
    /// A balanced tree of `n >= 1` nodes: each subtree splits its remaining
    /// nodes evenly, so every seed edits a tree of the same depth.
    pub fn balanced(n: usize) -> Shape {
        let mut shape = Shape {
            left: vec![NIL; n],
            right: vec![NIL; n],
        };
        // (id to assign, subtree size, parent, is_left); pre-order ids.
        let mut next = 0u32;
        let mut stack = vec![(n, NIL, false)];
        while let Some((size, parent, is_left)) = stack.pop() {
            let id = next;
            next += 1;
            if parent != NIL {
                if is_left {
                    shape.left[parent as usize] = id;
                } else {
                    shape.right[parent as usize] = id;
                }
            }
            let left = (size - 1) / 2;
            let right = size - 1 - left;
            // Push right first so the left subtree takes the next ids.
            if right > 0 {
                stack.push((right, id, false));
            }
            if left > 0 {
                stack.push((left, id, true));
            }
        }
        shape
    }

    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// Height of the root (a lone node has height 1, an empty tree 0),
    /// following the current links.
    pub fn height(&self) -> i64 {
        // Pre-order numbering puts children after parents, so a reverse
        // sweep sees every child before its parent. Detached nodes get a
        // height too; only the root's is read.
        let mut h = vec![0i64; self.len()];
        let of = |h: &[i64], c: u32| if c == NIL { 0 } else { h[c as usize] };
        for i in (0..self.len()).rev() {
            h[i] = of(&h, self.left[i]).max(of(&h, self.right[i])) + 1;
        }
        h[0]
    }
}

/// Sum of the AG tree's leaf values.
pub fn leaf_sum(leaves: &[i64]) -> i64 {
    leaves.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn grid_straight_chains_add_up() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = Grid::random(4, 5, 2, 2, &mut rng);
        let b = g.bottoms();
        for c in 0..4 {
            let adds: i64 = (1..5).map(|r| g.add[g.idx(c, r)]).sum();
            assert_eq!(b[c as usize], g.heads[c as usize] + adds);
        }
        let s = g.sums(&b);
        let st = g.sum_starts[0] as usize;
        assert_eq!(s[0], b[st] + b[st + 1]);
    }

    #[test]
    fn shape_is_a_tree_of_n_nodes() {
        let s = Shape::balanced(100);
        assert_eq!(s.height(), 7);
        let mut seen = [false; 100];
        seen[0] = true;
        for i in 0..100 {
            for c in [s.left[i], s.right[i]] {
                if c != NIL {
                    assert!(c as usize > i && !seen[c as usize]);
                    seen[c as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&x| x));
        let chain = Shape {
            left: vec![1, 2, NIL],
            right: vec![NIL; 3],
        };
        assert_eq!(chain.height(), 3);
    }
}
