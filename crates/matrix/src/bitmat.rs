//! Bit-packed boolean matrices and their product over the Boolean semiring.
//!
//! When the consumer only needs *existence* of a join witness (plain
//! join-project output) the counts that SGEMM produces are wasted work.
//! `C[i][j] = ⋁_k A[i][k] ∧ B[k][j]` handles 64 cells per word operation,
//! and its operands are 32× smaller than the f32 ones.
//!
//! The product has two orientations, chosen by [`BitProductPlan::choose`]
//! from the operand counts before the right operand is built (its layout
//! differs between them):
//!
//! * **row-OR** — for every set bit `A[i][k]`, OR row `k` of `B` (`k × n`)
//!   into row `i` of `C`: `nnz(A) · ⌈n/64⌉` word operations, sparse in `A`.
//! * **AND-any** — for every `(i, j)`, AND row `i` of `A` with row `j` of
//!   `Bᵀ` (`n × k`) until a word intersects: at most `m · n · ⌈k/64⌉`, but
//!   one or two words per pair once the operands are dense enough that
//!   almost every pair has a witness.
//!
//! Both are plain portable loops on the calling thread. The products the
//! serving workloads run are a few thousand to a few tens of thousands of
//! word operations — microseconds — so neither explicit SIMD nor a fork pays
//! for itself there (measured; see CHANGES.md, PR 14).
//!
//! Padding bits past `cols` in the last word of a row are always zero —
//! every constructor and kernel keeps that, and AND-any relies on it.
//!
//! Both orientations take the right operand's **universal mask**: the inner
//! coordinates that every one of the `n` output columns has. A row of `A`
//! with a bit in it reaches every column — any `x` with such a `y` meets
//! every `z` — so its result row is set full and its pairs are never
//! tested; every other row runs the loop above unchanged. The mask is an
//! argument, not a second kernel: an empty one (`&[]`) is a plain product.
//! On dense inputs it is the common case — a relation's mask is memoised
//! with its packed rows (`mmjoin_storage::packed`), a star's is the AND of
//! its `W` rows.
//!
//! The kernels read their operands through [`BitRows`], a borrowed view, so
//! an operand that outlives the query — a relation's memoised packed rows —
//! is multiplied where it lies. Two such operands need not agree on the
//! inner dimension: each is packed over its own relation's raw `y` ids, and
//! the product joins them on the ids both have — AND-any over the common
//! word prefix of the two rows, row-OR skipping a set bit of `A` past the
//! last row of `B`. Zero padding makes the wider side's extra words inert.

/// Words tested per early-exit step of AND-any.
const AND_BLOCK: usize = 8;

/// AND-any is picked on an *expected* cost that assumes independent bits;
/// clustered operands can make every pair scan its whole row instead. It is
/// only picked while that worst case stays within this factor of row-OR,
/// whose cost does not depend on where the bits are.
const AND_ANY_MAX_REGRET: f64 = 8.0;

/// Which loop evaluates a Boolean product, and therefore how the right
/// operand is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Right operand `k × n`; OR its rows into `C` per set bit of `A`.
    RowOr,
    /// Right operand transposed, `n × k`; AND row pairs until one intersects.
    AndAny,
}

impl Orientation {
    /// Stable name of the Boolean kernel in this orientation, for plan
    /// reports.
    pub fn name(self) -> &'static str {
        match self {
            Orientation::RowOr => "bit row-or",
            Orientation::AndAny => "bit and-any",
        }
    }
}

/// The orientation a Boolean product `m×k · k×n` should run in, with the
/// work and memory that choice implies. A planner prices a candidate with
/// this function on the counts it has — exact ones for a two-path over the
/// relations' memoised rows, bounds for a star or a forced partition, where
/// the engine calls it again on the exact cells and runs what that says.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitProductPlan {
    /// The cheaper orientation.
    pub orientation: Orientation,
    /// Estimated word operations of the product in that orientation.
    pub words: f64,
    /// Bytes of both operands and the result in that orientation.
    pub bytes: usize,
}

impl BitProductPlan {
    /// Picks the orientation from the shape and the operands' set-bit counts
    /// (`nnz_a` of the `m×k` left operand, `nnz_b` of the right one; upper
    /// bounds are fine).
    pub fn choose(m: usize, k: usize, n: usize, nnz_a: f64, nnz_b: f64) -> Self {
        let (mf, nf) = (m as f64, n as f64);
        let (kw, nw) = (k.div_ceil(64), n.div_ceil(64));
        let row_or = nnz_a * nw as f64 + mf * kw as f64;
        // Under independent bits a word pair intersects with probability
        // `p`; a pair scans a truncated-geometric number of words.
        let cells_a = (mf * k as f64).max(1.0);
        let cells_b = (k as f64 * nf).max(1.0);
        let hit = ((nnz_a / cells_a) * (nnz_b / cells_b)).clamp(0.0, 1.0);
        let p = 1.0 - (1.0 - hit).powi(64);
        let scanned = if p > 0.0 {
            ((1.0 - (1.0 - p).powi(kw as i32)) / p).max(1.0)
        } else {
            kw as f64
        };
        let and_any = mf * nf * scanned;
        let worst = mf * nf * kw as f64;
        let orientation = if and_any < row_or && worst <= AND_ANY_MAX_REGRET * row_or {
            Orientation::AndAny
        } else {
            Orientation::RowOr
        };
        let right_words = match orientation {
            Orientation::RowOr => k * nw,
            Orientation::AndAny => n * kw,
        };
        Self {
            orientation,
            words: match orientation {
                Orientation::RowOr => row_or,
                Orientation::AndAny => and_any,
            },
            bytes: 8 * (m * kw + right_words + m * nw),
        }
    }
}

/// A row-major bit-packed boolean matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    /// Words per row.
    stride: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An all-false `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        Self {
            rows,
            cols,
            stride,
            words: vec![0; rows * stride],
        }
    }

    /// Builds a matrix a word at a time straight from CSR adjacency rows:
    /// row `i` gets a bit at column `col_of[v]` for every value `v` of
    /// `adjacency(i)` that has one (a negative or missing entry has none).
    /// With sorted rows and a monotone map — heavy values numbered in
    /// ascending order — the columns of a row ascend, so each word is
    /// assembled in a register and stored whole: no branch on where words
    /// change, no read of the matrix.
    ///
    /// # Panics
    /// Panics if `col_of` names a column `>= cols`, or if a row's columns
    /// step back into an earlier word.
    pub fn from_adjacency<'a>(
        rows: usize,
        cols: usize,
        col_of: &[i32],
        adjacency: impl Fn(usize) -> &'a [u32],
    ) -> Self {
        assert!(
            col_of.iter().all(|&c| c < 0 || (c as usize) < cols),
            "column map exceeds {cols} columns"
        );
        let mut m = Self::zeros(rows, cols);
        if m.stride == 0 {
            return m;
        }
        for (i, out) in m.words.chunks_exact_mut(m.stride).enumerate() {
            let (mut at, mut acc, mut ascending) = (0usize, 0u64, true);
            for &v in adjacency(i) {
                let Some(c) = col_of
                    .get(v as usize)
                    .and_then(|&c| usize::try_from(c).ok())
                else {
                    continue;
                };
                let word = c / 64;
                // Checked once per row: a panic path here costs the loop
                // half its speed.
                ascending &= word >= at;
                acc = if word == at { acc } else { 0 } | 1u64 << (c % 64);
                at = word;
                out[at] = acc;
            }
            assert!(ascending, "row {i}: columns step back into a stored word");
        }
        m
    }

    /// A `rows × cols` matrix over `words`: row after row, `⌈cols/64⌉`
    /// words each, the padding bits zero.
    ///
    /// # Panics
    /// Panics if `words` is not `rows · ⌈cols/64⌉` long.
    pub fn from_words(rows: usize, cols: usize, words: Vec<u64>) -> Self {
        let stride = BitRows::new(rows, cols, &words).stride;
        Self {
            rows,
            cols,
            stride,
            words,
        }
    }

    /// The transpose, `cols × rows`.
    pub fn transposed(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for (i, j) in self.iter_ones() {
            t.set(j, i);
        }
        t
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets bit `(i, j)` to true.
    ///
    /// # Panics
    /// Panics if `(i, j)` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) {
        assert!(
            i < self.rows && j < self.cols,
            "bit ({i}, {j}) out of range"
        );
        self.words[i * self.stride + j / 64] |= 1u64 << (j % 64);
    }

    /// Reads bit `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.rows && j < self.cols);
        self.words[i * self.stride + j / 64] >> (j % 64) & 1 == 1
    }

    /// Row `i` as words.
    #[inline]
    pub fn row_words(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// The matrix as the borrowed view the product kernels read.
    pub fn view(&self) -> BitRows<'_> {
        BitRows {
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
            words: &self.words,
        }
    }

    /// Row-OR Boolean product `self · other` (`m×k` by `k×n`).
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn bool_product(&self, other: &BitMatrix) -> BitMatrix {
        self.product(other, Orientation::RowOr)
    }

    /// Boolean product on the calling thread, with no universal mask.
    /// `other` is `k×n` for [`Orientation::RowOr`] and the transposed `n×k`
    /// for [`Orientation::AndAny`]; the result is `m×n` either way.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree ([`BitRows::product`] is the
    /// kernel without that requirement, and with a mask).
    pub fn product(&self, other: &BitMatrix, orientation: Orientation) -> BitMatrix {
        let inner = match orientation {
            Orientation::RowOr => other.rows,
            Orientation::AndAny => other.cols,
        };
        assert_eq!(self.cols, inner, "inner dimensions must agree");
        self.view().product(other.view(), orientation, &[]).0
    }

    /// Number of set bits in the whole matrix.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over set bit coordinates `(row, col)`, row-major.
    pub fn iter_ones(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.rows).flat_map(move |i| ones(self.row_words(i)).map(move |j| (i, j)))
    }

    /// The words, row after row, `⌈cols/64⌉` each, the padding bits zero.
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }
}

/// A borrowed row-major bit matrix: `rows` rows of `⌈cols/64⌉` words each,
/// every bit past `cols` zero. What the product kernels read — a
/// [`BitMatrix`] through [`BitMatrix::view`], or words owned elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct BitRows<'a> {
    rows: usize,
    cols: usize,
    stride: usize,
    words: &'a [u64],
}

impl<'a> BitRows<'a> {
    /// A view of `words` as `rows × cols` bits. The caller keeps the
    /// padding bits of each row zero.
    ///
    /// # Panics
    /// Panics if `words` is not `rows · ⌈cols/64⌉` long.
    pub fn new(rows: usize, cols: usize, words: &'a [u64]) -> Self {
        let stride = cols.div_ceil(64);
        assert_eq!(words.len(), rows * stride, "{rows} rows of {stride} words");
        let view = Self {
            rows,
            cols,
            stride,
            words,
        };
        debug_assert!(
            cols.is_multiple_of(64)
                || (0..rows).all(|i| view.row_words(i)[stride - 1] >> (cols % 64) == 0),
            "set padding bits"
        );
        view
    }

    #[inline]
    fn row_words(&self, i: usize) -> &'a [u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Boolean product on the calling thread, over the inner coordinates
    /// both operands have, and the number of rows `universal` filled.
    /// `self` is `m×k`; `other` is `k'×n` for [`Orientation::RowOr`] — bit
    /// `j < min(k, k')` of a row of `self` selects row `j` of `other` — and
    /// the transposed `n×k'` for [`Orientation::AndAny`]. The result is
    /// `m×n` either way.
    ///
    /// `universal` is a word mask over `other`'s inner coordinates `0..k'`
    /// (shorter is fine: missing words are empty). The caller sets bit `y`
    /// only if every one of the `n` columns has `y`: a row of `self` that
    /// meets the mask is then set full without testing its pairs.
    pub fn product(
        self,
        other: BitRows<'_>,
        orientation: Orientation,
        universal: &[u64],
    ) -> (BitMatrix, usize) {
        let n = match orientation {
            Orientation::RowOr => other.cols,
            Orientation::AndAny => other.rows,
        };
        let mut c = BitMatrix::zeros(self.rows, n);
        if c.stride == 0 {
            return (c, 0);
        }
        let full_last = !0u64 >> ((64 - n % 64) % 64);
        let mut filled = 0;
        // Only the mask's nonzero words that a row of `self` has are
        // tested: an empty mask costs a row nothing.
        let hi = universal
            .iter()
            .rposition(|&u| u != 0)
            .map_or(0, |h| (h + 1).min(self.stride));
        let lo = universal[..hi].iter().position(|&u| u != 0).unwrap_or(hi);
        let universal = &universal[lo..hi];
        // Row-OR: the words of a row of `A` that hold a bit `< inner`, the
        // last of them masked down to it.
        let inner = self.cols.min(other.rows);
        let (a_words, last_mask) = (inner.div_ceil(64), !0u64 >> ((64 - inner % 64) % 64));
        // AND-any: the words both rows have.
        let common = self.stride.min(other.stride);
        for (i, c_row) in c.words.chunks_exact_mut(c.stride).enumerate() {
            let a_row = self.row_words(i);
            // Bits of `a_row` past `k'` meet only the mask's zero padding.
            if a_row[lo..hi].iter().zip(universal).any(|(a, u)| a & u != 0) {
                c_row.fill(!0);
                c_row[c_row.len() - 1] = full_last;
                filled += 1;
                continue;
            }
            match orientation {
                Orientation::RowOr => {
                    for (wk, &aw) in a_row[..a_words].iter().enumerate() {
                        let aw = if wk + 1 == a_words {
                            aw & last_mask
                        } else {
                            aw
                        };
                        for bit in BitIter(aw) {
                            for (d, s) in c_row.iter_mut().zip(other.row_words(wk * 64 + bit)) {
                                *d |= *s;
                            }
                        }
                    }
                }
                Orientation::AndAny => and_any_row(&a_row[..common], other, c_row),
            }
        }
        (c, filled)
    }
}

/// Positions of the set bits of a row of `words`, ascending: bit `b` of
/// word `wk` is `64 · wk + b`.
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    let bits = |(wk, &w): (usize, &u64)| BitIter(w).map(move |b| wk * 64 + b);
    words.iter().enumerate().flat_map(bits)
}

/// Iterates set-bit positions of one word.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// AND-any for one row of `A` — cut to the words `Bᵀ`'s rows have too —
/// against every row of `Bᵀ`: bit `j` of the result is set when the two rows
/// share a set bit. Only `A`'s nonzero word range is scanned, and a pair
/// stops at its first intersecting [`AND_BLOCK`]-word block. Inlined into
/// the row loop: with the mask test beside it, a call per row cost dense
/// random operands ~7 % of their product.
#[inline(always)]
fn and_any_row(a_row: &[u64], bt: BitRows<'_>, c_row: &mut [u64]) {
    let Some(lo) = a_row.iter().position(|&w| w != 0) else {
        return;
    };
    let hi = a_row.iter().rposition(|&w| w != 0).map_or(lo, |h| h + 1);
    let (a_blocks, a_tail) = a_row[lo..hi].as_chunks::<AND_BLOCK>();
    for (jw, c_word) in c_row.iter_mut().enumerate() {
        let mut word = 0u64;
        for j in jw * 64..((jw + 1) * 64).min(bt.rows) {
            let (b_blocks, b_tail) = bt.row_words(j)[lo..hi].as_chunks::<AND_BLOCK>();
            let hit = a_blocks.iter().zip(b_blocks).any(|(x, y)| {
                let mut acc = 0u64;
                for i in 0..AND_BLOCK {
                    acc |= x[i] & y[i];
                }
                acc != 0
            }) || a_tail.iter().zip(b_tail).any(|(x, y)| x & y != 0);
            word |= (hit as u64) << (j % 64);
        }
        *c_word = word;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::gemm::matmul;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rng: &mut StdRng, rows: usize, cols: usize, density: f64) -> BitMatrix {
        let mut m = BitMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.gen_bool(density) {
                    m.set(i, j);
                }
            }
        }
        m
    }

    /// The product one bit at a time.
    fn per_bit(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
        let mut c = BitMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                if (0..a.cols()).any(|k| a.get(i, k) && b.get(k, j)) {
                    c.set(i, j);
                }
            }
        }
        c
    }

    #[test]
    fn set_and_get() {
        let mut m = BitMatrix::zeros(3, 100);
        m.set(0, 0);
        m.set(1, 63);
        m.set(1, 64);
        m.set(2, 99);
        assert!(m.get(0, 0));
        assert!(m.get(1, 63));
        assert!(m.get(1, 64));
        assert!(m.get(2, 99));
        assert!(!m.get(0, 1));
        assert_eq!(m.count_ones(), 4);
    }

    #[test]
    fn iter_ones_roundtrip() {
        let mut m = BitMatrix::zeros(2, 70);
        let coords = [(0usize, 5usize), (0, 64), (1, 0), (1, 69)];
        for &(i, j) in &coords {
            m.set(i, j);
        }
        let got: Vec<_> = m.iter_ones().collect();
        assert_eq!(got, coords);
    }

    #[test]
    fn from_adjacency_equals_per_bit_set() {
        // Values 0..8 map to columns spread over three words; 3 and 9 have
        // no column.
        let col_of = [0, 63, 64, -1, 65, 70, 128, 129];
        let lists: [&[u32]; 4] = [&[0, 1, 2, 7], &[], &[1, 3, 4, 4, 5, 9], &[6]];
        let built = BitMatrix::from_adjacency(4, 130, &col_of, |i| lists[i]);
        let mut want = BitMatrix::zeros(4, 130);
        for (i, list) in lists.iter().enumerate() {
            for &v in *list {
                if let Some(&c) = col_of.get(v as usize).filter(|&&c| c >= 0) {
                    want.set(i, c as usize);
                }
            }
        }
        assert_eq!(built, want);
        assert_eq!(built.count_ones(), 8);
        let none = BitMatrix::from_adjacency(3, 0, &[], |_| &[1, 2]);
        assert_eq!(none.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "column map exceeds")]
    fn from_adjacency_rejects_a_column_in_the_padding() {
        let _ = BitMatrix::from_adjacency(1, 70, &[70], |_| &[0]);
    }

    #[test]
    #[should_panic(expected = "step back")]
    fn from_adjacency_rejects_a_step_back_into_a_stored_word() {
        let _ = BitMatrix::from_adjacency(1, 130, &[64, 3], |_| &[0, 1]);
    }

    #[test]
    fn bool_product_matches_float_gemm_thresholded() {
        let mut rng = StdRng::seed_from_u64(9);
        let (m, k, n) = (37, 53, 71);
        let a_bit = random(&mut rng, m, k, 0.2);
        let b_bit = random(&mut rng, k, n, 0.2);
        let a = DenseMatrix::from_fn(m, k, |i, j| a_bit.get(i, j) as u8 as f32);
        let b = DenseMatrix::from_fn(k, n, |i, j| b_bit.get(i, j) as u8 as f32);
        let c_bit = a_bit.bool_product(&b_bit);
        let c = matmul(&a, &b);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(c_bit.get(i, j), c.get(i, j) > 0.0, "({i},{j})");
            }
        }
    }

    /// Both orientations agree with the per-bit product across widths that
    /// straddle word (64) and early-exit block (512) boundaries in the
    /// inner and the output dimension.
    #[test]
    fn both_orientations_match_per_bit_reference_on_edge_widths() {
        let mut rng = StdRng::seed_from_u64(17);
        let widths = [1usize, 63, 64, 65, 255, 257, 511, 512, 513, 1025];
        for (t, &wide) in widths.iter().enumerate() {
            // Sparse enough that some pairs have no witness at every width.
            let density = (1.5 / (wide as f64).sqrt()).min(0.4);
            for (m, k, n) in [(5, 9 + t, wide), (5, wide, 9 + t)] {
                let a = random(&mut rng, m, k, density);
                let b = random(&mut rng, k, n, density);
                let want = per_bit(&a, &b);
                let bt = b.transposed();
                assert_eq!(
                    a.product(&b, Orientation::RowOr),
                    want,
                    "row-or ({m},{k},{n})"
                );
                assert_eq!(
                    a.product(&bt, Orientation::AndAny),
                    want,
                    "and-any ({m},{k},{n})"
                );
            }
        }
    }

    /// AND-any exits early on a hit and scans everything on a miss: rows
    /// that meet only in the first or only in the last word, and rows that
    /// never meet.
    #[test]
    fn and_any_finds_first_and_last_word_witnesses() {
        let k = 64 * 19 + 3;
        let mut a = BitMatrix::zeros(3, k);
        let mut bt = BitMatrix::zeros(3, k);
        a.set(0, 0);
        a.set(1, k - 1);
        a.set(2, 700);
        bt.set(0, 0);
        bt.set(1, k - 1);
        bt.set(2, 701);
        let c = a.product(&bt, Orientation::AndAny);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), [(0, 0), (1, 1)]);
    }

    /// Operands packed over different inner domains (`ka ≠ kb`, different
    /// strides, neither a multiple of 64) join on the ids both have: a
    /// witness in the first word or in the last common word counts, one
    /// past the narrower side's domain does not — in either orientation,
    /// whichever side is the wider.
    #[test]
    fn unequal_inner_widths_join_on_the_common_prefix() {
        for (ka, kb) in [(200usize, 70usize), (70, 200), (130, 129), (64, 65)] {
            let common = ka.min(kb);
            let (mut a, mut b) = (BitMatrix::zeros(4, ka), BitMatrix::zeros(kb, 3));
            // Row 0 / column 0 meet in the first word, row 1 / column 1 at
            // the last common id; row 2 / column 2 never meet, and the wider
            // of them has a bit past the other's domain.
            a.set(0, 3);
            b.set(3, 0);
            a.set(1, common - 1);
            b.set(common - 1, 1);
            a.set(2, 0);
            b.set(1, 2);
            if ka > kb {
                a.set(2, ka - 1);
            } else {
                b.set(kb - 1, 2);
            }
            // Row 3 is dense: it meets every column with a bit below `common`.
            (0..ka).for_each(|k| a.set(3, k));
            let mut want = BitMatrix::zeros(4, 3);
            for i in 0..4 {
                for j in 0..3 {
                    if (0..common).any(|k| a.get(i, k) && b.get(k, j)) {
                        want.set(i, j);
                    }
                }
            }
            assert_eq!(
                want.iter_ones().collect::<Vec<_>>(),
                [(0, 0), (1, 1), (3, 0), (3, 1), (3, 2)]
            );
            let bt = b.transposed();
            assert_eq!(
                a.view().product(b.view(), Orientation::RowOr, &[]),
                (want.clone(), 0),
                "row-or {ka}/{kb}"
            );
            assert_eq!(
                a.view().product(bt.view(), Orientation::AndAny, &[]),
                (want, 0),
                "and-any {ka}/{kb}"
            );
        }
    }

    /// Random operands over unequal inner widths, both orientations against
    /// the per-bit product over the common ids; a borrowed view over foreign
    /// words multiplies like the matrix it was copied from.
    #[test]
    fn unequal_inner_widths_match_per_bit_reference_on_random_operands() {
        let mut rng = StdRng::seed_from_u64(23);
        for (ka, kb, n) in [(150, 90, 70), (90, 150, 70), (65, 1, 130), (513, 700, 9)] {
            let a = random(&mut rng, 6, ka, 0.05);
            let b = random(&mut rng, kb, n, 0.05);
            let common = ka.min(kb);
            let mut want = BitMatrix::zeros(6, n);
            for i in 0..6 {
                for j in 0..n {
                    if (0..common).any(|k| a.get(i, k) && b.get(k, j)) {
                        want.set(i, j);
                    }
                }
            }
            let bt = b.transposed();
            let foreign: Vec<u64> = (0..6).flat_map(|i| a.row_words(i).to_vec()).collect();
            let a_view = BitRows::new(6, ka, &foreign);
            assert_eq!(a_view.product(b.view(), Orientation::RowOr, &[]).0, want);
            assert_eq!(a_view.product(bt.view(), Orientation::AndAny, &[]).0, want);
        }
    }

    /// The product over the ids both sides have, one bit at a time.
    fn per_bit_common(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
        let common = a.cols().min(b.rows());
        let mut c = BitMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                if (0..common).any(|k| a.get(i, k) && b.get(k, j)) {
                    c.set(i, j);
                }
            }
        }
        c
    }

    /// The inner ids of `b` (`k × n`) that every column has, as words.
    fn universal_of(b: &BitMatrix) -> Vec<u64> {
        let mut mask = vec![0u64; b.rows().div_ceil(64)];
        for k in (0..b.rows()).filter(|&k| (0..b.cols()).all(|j| b.get(k, j))) {
            mask[k / 64] |= 1 << (k % 64);
        }
        mask
    }

    /// `a · b` in both orientations under `mask`, checked against the
    /// per-bit product: the same bits, and the same count of filled rows
    /// from either kernel — the rows of `a` that meet the mask.
    fn check_masked(a: &BitMatrix, b: &BitMatrix, mask: &[u64]) -> usize {
        let want = per_bit_common(a, b);
        let meets = (0..a.rows())
            .filter(|&i| a.row_words(i).iter().zip(mask).any(|(x, u)| x & u != 0))
            .count();
        let filled = if b.cols() == 0 { 0 } else { meets };
        let bt = b.transposed();
        let (rows, cols) = (a.rows(), (a.cols(), b.rows(), b.cols()));
        assert_eq!(
            a.view().product(b.view(), Orientation::RowOr, mask),
            (want.clone(), filled),
            "row-or {rows} × {cols:?}"
        );
        assert_eq!(
            a.view().product(bt.view(), Orientation::AndAny, mask),
            (want, filled),
            "and-any {rows} × {cols:?}"
        );
        filled
    }

    /// A masked product is the plain one, in both orientations, over output
    /// and inner widths on both sides of a word, with the mask exact, empty,
    /// or cut down to part of the universal ids — and rows that do and do
    /// not meet it. A universal id past the left side's domain fills
    /// nothing; a full row keeps its padding zero.
    #[test]
    fn a_masked_product_equals_the_per_bit_reference() {
        let mut rng = StdRng::seed_from_u64(31);
        let widths = [1usize, 63, 64, 65, 130];
        let (mut filled, mut rows) = (0, 0);
        for &n in &widths {
            for &k in &widths {
                for (ka, kb) in [(k, k), (k, k + 70), (k + 70, k)] {
                    let a = random(&mut rng, 7, ka, 0.04);
                    let mut b = random(&mut rng, kb, n, 0.3);
                    // Universal ids: the first, one at the last id both have,
                    // and one past the left side's domain when there is one.
                    for y in [0, ka.min(kb) - 1, kb - 1] {
                        (0..n).for_each(|j| b.set(y, j));
                    }
                    let mask = universal_of(&b);
                    filled += check_masked(&a, &b, &mask);
                    rows += 7;
                    check_masked(&a, &b, &[]);
                    // Any subset of the universal ids is a valid mask: its
                    // first word, or only the ids past the left side's
                    // domain, which no row of `a` has.
                    check_masked(&a, &b, &mask[..1]);
                    let mut past = mask.clone();
                    for y in 0..ka.min(64 * past.len()) {
                        past[y / 64] &= !(1 << (y % 64));
                    }
                    assert_eq!(check_masked(&a, &b, &past), 0);
                    let full = a.view().product(b.view(), Orientation::RowOr, &mask).0;
                    assert!(
                        n.is_multiple_of(64)
                            || (0..7)
                                .all(|i| full.row_words(i)[n.div_ceil(64) - 1] >> (n % 64) == 0),
                        "padding stays zero"
                    );
                }
            }
        }
        assert!(
            0 < filled && filled < rows,
            "{filled} of {rows} rows filled"
        );
        // An all-ones right operand: every id is universal, every nonempty
        // row of `a` is filled and an empty one is not.
        let mut a = random(&mut rng, 5, 130, 0.02);
        (0..130).for_each(|k| a.set(1, k));
        let a = BitMatrix::from_words(6, 130, [a.words.clone(), vec![0; 3]].concat());
        let mut b = BitMatrix::zeros(130, 65);
        (0..130).for_each(|k| (0..65).for_each(|j| b.set(k, j)));
        let all = universal_of(&b);
        assert_eq!(all, [!0, !0, 3]);
        let nonempty = (0..6)
            .filter(|&i| a.row_words(i).iter().any(|&w| w != 0))
            .count();
        assert_eq!(check_masked(&a, &b, &all), nonempty);
        assert_eq!(nonempty, 5);
        // No output column: nothing to fill.
        assert_eq!(check_masked(&a, &BitMatrix::zeros(130, 0), &all), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random shapes and densities, a random set of forced universal ids
        /// on the right and a random subset of them as the mask.
        #[test]
        fn masked_products_match_the_reference(
            m in 1usize..9,
            ka in 1usize..150,
            kb in 1usize..150,
            n in 0usize..140,
            universal in proptest::collection::vec(0usize..150, 0..4),
            keep in proptest::prelude::any::<u32>(),
            seed in proptest::prelude::any::<u32>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed.into());
            let keep = u64::from(keep) << 32 | u64::from(keep);
            let a = random(&mut rng, m, ka, 0.05);
            let mut b = random(&mut rng, kb, n, 0.2);
            for y in universal.into_iter().filter(|&y| y < kb) {
                (0..n).for_each(|j| b.set(y, j));
            }
            let mask: Vec<u64> = universal_of(&b)
                .into_iter()
                .enumerate()
                .map(|(w, u)| u & keep.rotate_left(w as u32))
                .collect();
            check_masked(&a, &b, &mask);
        }
    }

    #[test]
    #[should_panic(expected = "rows of")]
    fn a_view_rejects_words_of_the_wrong_length() {
        let _ = BitRows::new(3, 70, &[0u64; 5]);
    }

    #[test]
    fn plan_prefers_and_any_only_when_dense_and_bounded() {
        // Dense operands, short result rows: a pair hits in its first word.
        let dense = BitProductPlan::choose(176, 3500, 176, 100_000.0, 100_000.0);
        assert_eq!(dense.orientation, Orientation::AndAny);
        assert!(dense.words < 2.0 * 176.0 * 176.0, "{dense:?}");
        // Sparse operands: row-OR is sparse in A, AND-any would scan it all.
        let sparse = BitProductPlan::choose(5000, 5000, 5000, 20_000.0, 20_000.0);
        assert_eq!(sparse.orientation, Orientation::RowOr);
        assert_eq!(sparse.words, 20_000.0 * 79.0 + 5000.0 * 79.0);
        // Cheaper in expectation, but a pair that misses scans 1000 words:
        // the regret bound keeps row-OR.
        let risky = BitProductPlan::choose(200, 64_000, 200, 640_000.0, 640_000.0);
        assert_eq!(risky.orientation, Orientation::RowOr);
        assert_eq!(risky.words, 640_000.0 * 4.0 + 200.0 * 1000.0);
        // Bytes follow the layout: 8·(m·⌈k/64⌉ + right operand + m·⌈n/64⌉).
        assert_eq!(dense.bytes, 8 * (176 * 55 + 176 * 55 + 176 * 3));
        assert_eq!(sparse.bytes, 8 * 3 * 5000 * 79);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn product_dimension_mismatch() {
        let a = BitMatrix::zeros(2, 3);
        let b = BitMatrix::zeros(4, 2);
        let _ = a.bool_product(&b);
    }

    #[test]
    fn empty_products() {
        let a = BitMatrix::zeros(0, 0);
        let c = a.bool_product(&BitMatrix::zeros(0, 5));
        assert_eq!((c.rows(), c.cols()), (0, 5));
        let c = BitMatrix::zeros(3, 4).product(&BitMatrix::zeros(0, 4), Orientation::AndAny);
        assert_eq!((c.rows(), c.cols(), c.count_ones()), (3, 0, 0));
        let c = BitMatrix::zeros(3, 0).product(&BitMatrix::zeros(2, 0), Orientation::AndAny);
        assert_eq!((c.rows(), c.cols(), c.count_ones()), (3, 2, 0));
    }
}
