//! Bit-packed adjacency rows, memoised on the [`Relation`] they pack.
//!
//! The Boolean heavy core of a join-project multiplies 0/1 matrices whose
//! cells are a relation's tuples. With every value heavy each operand is a
//! function of *one* relation, so it is packed once per relation value —
//! by the first query that reads it — instead of once per query:
//!
//! * **`x`-major** — one row per active `x`, ascending; bit `y` of a row is
//!   set when `(x, y)` is a tuple. Columns are raw `y` ids, so two relations'
//!   rows meet on the shared coordinate without renumbering.
//! * **`y`-major** — one row per raw `y` in `0..y_domain`; bit `i` is set
//!   when `(ids[i], y)` is a tuple, `ids` being the active `x`s ascending.
//!
//! A form lives exactly as long as the relation value: a clone shares it,
//! and anything that makes a *new* relation (an applied delta, a semi-join
//! reduction) starts unpacked. So does a transpose, although it shares its
//! origin's indexes: it is made afresh by every chain step that reads one,
//! and so would pack afresh too — which no served step does, since the
//! steps that read a transposed base relation all expand. Relations are
//! immutable, so there is nothing to invalidate.
//!
//! Each form also carries the relation's **universal mask**: bit `y` is set
//! when `y`'s degree equals the number of active `x` — every set contains
//! `y`. It is read off the `by_y` degrees in `O(y_domain)` while the form is
//! packed, and a Boolean product that has this relation on its right fills
//! the row of any left row that meets it, untested (`mmjoin_matrix::bitmat`).
//!
//! A form holds `rows · ⌈cols/64⌉` words plus `⌈y_domain/64⌉` for the mask:
//! `active_x · ⌈y_domain/64⌉` `x`-major, `y_domain · ⌈active_x/64⌉`
//! `y`-major.

use crate::relation::Relation;
use crate::Value;
use std::fmt;
use std::sync::OnceLock;

/// Which way a relation's adjacency is packed (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedForm {
    /// Rows are active `x` values, bit columns raw `y` ids.
    XMajor,
    /// Rows are raw `y` ids, bit columns ranks of the active `x` values.
    YMajor,
}

/// One packed form of a relation: a row-major bit matrix, `stride` words a
/// row, every bit past `cols` zero, and the relation's universal mask.
pub struct PackedRows {
    ids: Vec<Value>,
    rows: usize,
    cols: usize,
    words: Vec<u64>,
    universal: Vec<u64>,
}

impl PackedRows {
    /// The relation's active `x` values, ascending: they name the rows of
    /// an `x`-major form and the bit columns of a `y`-major one.
    pub fn ids(&self) -> &[Value] {
        &self.ids
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit columns per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Words per row, `⌈cols/64⌉`.
    pub fn stride(&self) -> usize {
        self.cols.div_ceil(64)
    }

    /// The rows, one after another.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The `y` ids every active `x` has, `⌈y_domain/64⌉` words: bit `y` is
    /// set when `y`'s degree is the relation's active-`x` count.
    pub fn universal(&self) -> &[u64] {
        &self.universal
    }
}

impl fmt::Debug for PackedRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedRows({} × {})", self.rows, self.cols)
    }
}

/// The lazily built forms of one relation value.
#[derive(Debug, Default)]
pub(crate) struct PackedForms {
    x_major: OnceLock<PackedRows>,
    y_major: OnceLock<PackedRows>,
}

impl PackedForms {
    fn slot(&self, form: PackedForm) -> &OnceLock<PackedRows> {
        match form {
            PackedForm::XMajor => &self.x_major,
            PackedForm::YMajor => &self.y_major,
        }
    }
}

impl Relation {
    /// The relation packed in `form`, and whether this call is the one that
    /// packed it. Concurrent first readers pack once: one of them builds,
    /// the others wait for it and report a reuse.
    pub fn packed(&self, form: PackedForm) -> (&PackedRows, bool) {
        let mut built = false;
        let rows = self.packed_forms().slot(form).get_or_init(|| {
            built = true;
            match form {
                PackedForm::XMajor => pack_x_major(self),
                PackedForm::YMajor => pack_y_major(self),
            }
        });
        (rows, built)
    }

    /// Whether `form` has been packed for this relation value.
    pub fn is_packed(&self, form: PackedForm) -> bool {
        self.packed_forms().slot(form).get().is_some()
    }

    /// Words `form` takes once packed, its universal mask included — known
    /// from the counts alone, so a memory cap can be checked before
    /// anything is packed.
    pub fn packed_words(&self, form: PackedForm) -> usize {
        let (rows, cols) = match form {
            PackedForm::XMajor => (self.active_x_count(), self.y_domain()),
            PackedForm::YMajor => (self.y_domain(), self.active_x_count()),
        };
        rows * cols.div_ceil(64) + self.y_domain().div_ceil(64)
    }

    /// Bytes of the forms packed so far (0 for an unpacked relation).
    pub fn packed_bytes(&self) -> usize {
        [PackedForm::XMajor, PackedForm::YMajor]
            .into_iter()
            .filter(|&form| self.is_packed(form))
            .map(|form| 8 * self.packed_words(form))
            .sum()
    }

    /// [`Relation::packed_bytes`] plus each packed form's id list: all
    /// the heap its forms hold.
    pub(crate) fn packed_heap_bytes(&self) -> usize {
        let forms = self.packed_forms();
        let ids = [&forms.x_major, &forms.y_major]
            .into_iter()
            .filter_map(OnceLock::get)
            .map(|rows| std::mem::size_of_val(rows.ids()))
            .sum::<usize>();
        self.packed_bytes() + ids
    }
}

fn pack_x_major(r: &Relation) -> PackedRows {
    let (rows, cols) = (r.active_x_count(), r.y_domain());
    let stride = cols.div_ceil(64);
    let mut ids = Vec::with_capacity(rows);
    let mut words = vec![0u64; rows * stride];
    // A relation with a row has a `y`, so `stride > 0` whenever this zips.
    let packed = words.chunks_exact_mut(stride.max(1));
    for ((x, ys), row) in r.by_x().iter_nonempty().zip(packed) {
        ids.push(x);
        for &y in ys {
            row[y as usize / 64] |= 1u64 << (y % 64);
        }
    }
    PackedRows {
        ids,
        rows,
        cols,
        words,
        universal: universal(r),
    }
}

fn pack_y_major(r: &Relation) -> PackedRows {
    let (rows, cols) = (r.y_domain(), r.active_x_count());
    let stride = cols.div_ceil(64);
    let mut ids = Vec::with_capacity(cols);
    let mut words = vec![0u64; rows * stride];
    for (rank, (x, ys)) in r.by_x().iter_nonempty().enumerate() {
        ids.push(x);
        let (word, bit) = (rank / 64, 1u64 << (rank % 64));
        for &y in ys {
            words[y as usize * stride + word] |= bit;
        }
    }
    PackedRows {
        ids,
        rows,
        cols,
        words,
        universal: universal(r),
    }
}

/// The universal mask: one pass over the `by_y` degrees.
fn universal(r: &Relation) -> Vec<u64> {
    let active = r.active_x_count();
    let mut mask = vec![0u64; r.y_domain().div_ceil(64)];
    for y in 0..r.y_domain() {
        if r.y_degree(y as Value) == active {
            mask[y / 64] |= 1u64 << (y % 64);
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RelationBuilder, RelationDelta};

    fn bit(p: &PackedRows, row: usize, col: usize) -> bool {
        p.words()[row * p.stride() + col / 64] >> (col % 64) & 1 == 1
    }

    /// Sparse ids on both sides, a `y` domain that is not a multiple of 64.
    fn sample() -> Relation {
        Relation::from_edges([(2, 0), (2, 69), (5, 64), (9, 3), (9, 63), (9, 69)])
    }

    #[test]
    fn x_major_has_a_row_per_active_x_and_a_bit_per_raw_y() {
        let r = sample();
        let (p, built) = r.packed(PackedForm::XMajor);
        assert!(built);
        assert_eq!(p.ids(), &[2, 5, 9]);
        assert_eq!((p.rows(), p.cols(), p.stride()), (3, 70, 2));
        for (row, &x) in p.ids().iter().enumerate() {
            for y in 0..70 {
                assert_eq!(bit(p, row, y), r.contains(x, y as Value), "({x}, {y})");
            }
        }
        // Padding past the domain stays zero.
        assert!(p.words().chunks(2).all(|row| row[1] >> 6 == 0));
        assert_eq!(
            p.words().len() + p.universal().len(),
            r.packed_words(PackedForm::XMajor)
        );
    }

    #[test]
    fn y_major_has_a_row_per_raw_y_and_a_bit_per_active_x_rank() {
        let r = sample();
        let (p, _) = r.packed(PackedForm::YMajor);
        assert_eq!(p.ids(), &[2, 5, 9]);
        assert_eq!((p.rows(), p.cols(), p.stride()), (70, 3, 1));
        for y in 0..70 {
            for (rank, &x) in p.ids().iter().enumerate() {
                assert_eq!(bit(p, y, rank), r.contains(x, y as Value), "({x}, {y})");
            }
        }
        assert_eq!(
            p.words().len() + p.universal().len(),
            r.packed_words(PackedForm::YMajor)
        );
    }

    /// The mask is `{y : deg(y) = active x}`, brute force, on relations
    /// with and without universal ids — over domains on both sides of a
    /// word, with an unused tail — and both forms carry the same one.
    #[test]
    fn the_universal_mask_is_every_y_all_active_x_share() {
        let mut b = RelationBuilder::with_domains(40, 200);
        for x in [1u32, 7, 30] {
            for y in [0u32, 63, 64, 129] {
                b.push(x, y);
            }
            b.push(x, x + 100);
        }
        b.push(7, 5);
        let relations = [sample(), b.build(), Relation::from_edges([(0, 3)])];
        for r in &relations {
            let active = r.active_x_count();
            let want: Vec<usize> = (0..r.y_domain())
                .filter(|&y| {
                    (0..r.x_domain() as Value)
                        .all(|x| r.x_degree(x) == 0 || r.contains(x, y as Value))
                })
                .collect();
            assert!(want.iter().all(|&y| r.y_degree(y as Value) == active));
            for form in [PackedForm::XMajor, PackedForm::YMajor] {
                let (p, _) = r.packed(form);
                assert_eq!(p.universal().len(), r.y_domain().div_ceil(64));
                let got: Vec<usize> = (0..64 * p.universal().len())
                    .filter(|&y| p.universal()[y / 64] >> (y % 64) & 1 == 1)
                    .collect();
                assert_eq!(got, want, "{form:?}");
            }
        }
        // `sample()` has no `y` every set holds; the built one has four.
        let ids = |r: &Relation| r.packed(PackedForm::XMajor).0.universal().to_vec();
        assert_eq!(ids(&relations[0]), [0, 0]);
        assert_eq!(ids(&relations[1]), [1 | 1 << 63, 1, 1 << 1, 0]);
        assert_eq!(ids(&relations[2]), [1 << 3]);
    }

    /// The mask is built with its form, once, and lives exactly as long:
    /// a clone reads the same words, a relation a delta made starts
    /// without it and builds its own.
    #[test]
    fn the_mask_is_built_once_and_shared_and_a_delta_starts_without_it() {
        let r = Relation::from_edges([(0, 1), (0, 2), (4, 2), (4, 70)]);
        let twin = r.clone();
        let mask = r.packed(PackedForm::XMajor).0.universal();
        assert_eq!(mask, [1 << 2, 0]);
        assert!(std::ptr::eq(
            mask,
            twin.packed(PackedForm::XMajor).0.universal()
        ));
        let updated = r.apply_delta(RelationDelta::new().insert(4, 1));
        assert!(!updated.is_packed(PackedForm::XMajor));
        assert_eq!(updated.packed_bytes(), 0);
        assert_eq!(
            updated.packed(PackedForm::YMajor).0.universal(),
            [1 << 1 | 1 << 2, 0]
        );
        assert_eq!(r.packed(PackedForm::XMajor).0.universal(), [1 << 2, 0]);
    }

    #[test]
    fn forms_are_built_once_and_shared_by_clones() {
        let r = sample();
        assert_eq!(r.packed_bytes(), 0);
        assert!(!r.is_packed(PackedForm::XMajor));
        let twin = r.clone();
        assert!(r.packed(PackedForm::XMajor).1);
        assert!(!r.packed(PackedForm::XMajor).1, "the second read reuses");
        assert!(
            twin.is_packed(PackedForm::XMajor),
            "a clone shares the form"
        );
        assert!(!twin.packed(PackedForm::XMajor).1);
        assert!(std::ptr::eq(
            r.packed(PackedForm::XMajor).0,
            twin.packed(PackedForm::XMajor).0
        ));
        assert!(!r.is_packed(PackedForm::YMajor));
        // Each form: its rows, and the two words of the mask over 70 `y`s.
        assert_eq!(r.packed_bytes(), 8 * (3 * 2 + 2));
        r.packed(PackedForm::YMajor);
        assert_eq!(r.packed_bytes(), 8 * (3 * 2 + 2 + 70 + 2));
    }

    #[test]
    fn a_new_relation_value_starts_unpacked_and_a_noop_keeps_its_forms() {
        let r = sample();
        r.packed(PackedForm::XMajor);
        r.packed(PackedForm::YMajor);
        let noop = r.apply_delta(RelationDelta::new().insert(2, 0).delete(7, 7));
        assert_eq!(noop.packed_bytes(), r.packed_bytes());
        let updated = r.apply_delta(RelationDelta::new().insert(3, 1));
        assert_eq!(updated.packed_bytes(), 0);
        assert_eq!(updated.packed(PackedForm::XMajor).0.ids(), &[2, 3, 5, 9]);
        assert_eq!(r.packed(PackedForm::XMajor).0.ids(), &[2, 5, 9]);
        assert_eq!(r.transposed().packed_bytes(), 0);
        let (reduced, _) = Relation::reduce_pair(&r, &r);
        assert_eq!(reduced.packed_bytes(), 0);
        assert_eq!(Relation::reduce_star(&[&r, &r])[0].packed_bytes(), 0);
    }

    #[test]
    fn empty_and_explicit_domains_pack_to_consistent_shapes() {
        let empty = Relation::from_edges(std::iter::empty());
        for form in [PackedForm::XMajor, PackedForm::YMajor] {
            let (p, _) = empty.packed(form);
            assert_eq!((p.rows(), p.cols(), p.words().len()), (0, 0, 0));
        }
        // Domains wider than the tuples: rows and padding for unused ids.
        let mut b = RelationBuilder::with_domains(10, 130);
        b.push(4, 129);
        let r = b.build();
        let (x, _) = r.packed(PackedForm::XMajor);
        assert_eq!((x.rows(), x.cols(), x.stride()), (1, 130, 3));
        assert!(bit(x, 0, 129));
        let (y, _) = r.packed(PackedForm::YMajor);
        assert_eq!((y.rows(), y.cols(), y.words().len()), (130, 1, 130));
        assert!(bit(y, 129, 0));
    }
}
