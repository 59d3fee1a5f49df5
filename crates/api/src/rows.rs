//! [`FlatRows`]: an answer's rows, held flat or as the product they are
//! the set cells of.

use mmjoin_storage::Value;
use std::borrow::Cow;
use std::sync::OnceLock;

/// Rows of one arity, in order — what [`VecSink`](crate::VecSink) collects,
/// and what the service caches and serves. Held in one of two forms:
///
/// * **flat** — one array, `arity` values per row, rows back to back;
/// * **product cells** ([`FlatRows::product`]) — the words of a row-major
///   bit matrix and two row lists, `left` of arity `a` and `right` of arity
///   `b = arity − a`: set cell `(i, j)` stands for row `left[i] ++
///   right[j]`, and the rows are the set cells walked row-major. A Boolean
///   heavy core's answer is its product, so the answer is kept that way —
///   a one-level factorised representation — and rows are written only when
///   they are read.
///
/// `len` and `heap_bytes` read either form as it stands. [`FlatRows::first`],
/// [`FlatRows::truncate`] and [`FlatRows::into_values`] write only the rows
/// they return or keep; the whole-answer reads ([`FlatRows::values`],
/// [`FlatRows::iter`], [`FlatRows::row`]) write every row of a product once
/// and keep them beside it. Equality compares rows, not forms.
#[derive(Debug, Clone)]
pub struct FlatRows {
    arity: usize,
    form: Form,
}

#[derive(Debug, Clone)]
enum Form {
    Flat(Vec<Value>),
    Cells(Box<Cells>),
}

/// A product answer: `left.len() / left_arity` rows of `stride` words, bit
/// `j` of row `i` standing for `left[i] ++ right[j]`.
#[derive(Debug, Clone)]
struct Cells {
    /// Set cells: the number of rows.
    rows: usize,
    words: Vec<u64>,
    stride: usize,
    left_arity: usize,
    left: Vec<Value>,
    right: Vec<Value>,
    /// Every row, written by the first whole-answer read.
    expanded: OnceLock<Vec<Value>>,
}

impl Default for FlatRows {
    fn default() -> Self {
        Self::new(0, Vec::new())
    }
}

impl PartialEq for FlatRows {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.len() == other.len() && self.values() == other.values()
    }
}

impl Eq for FlatRows {}

impl FlatRows {
    /// Flat rows: `arity` values per row in `values`, rows back to back.
    ///
    /// # Panics
    /// Panics if `arity` does not divide `values`, or is 0 with values.
    pub fn new(arity: usize, values: Vec<Value>) -> Self {
        assert!(
            values.len().checked_rem(arity).unwrap_or(values.len()) == 0,
            "{} values are not rows of arity {arity}",
            values.len()
        );
        Self {
            arity,
            form: Form::Flat(values),
        }
    }

    /// The set cells of a `left.len() × right.len()` bit matrix as rows,
    /// row-major: cell `(i, j)` is `left.row(i) ++ right.row(j)`, so with
    /// both row lists ascending the rows are sorted and distinct. `words`
    /// holds the matrix row after row, `⌈right.len()/64⌉` words each, the
    /// padding bits zero.
    ///
    /// The product is kept as it is only when its heap is no larger than
    /// the flat rows would be ([`FlatRows::heap_bytes`]); a sparser one is
    /// written out flat here, at its exact size.
    ///
    /// # Panics
    /// Panics if `words` does not fit the two row lists, or a list is empty
    /// of arity.
    pub fn product(words: Vec<u64>, left: FlatRows, right: FlatRows) -> Self {
        let (left_arity, arity) = (left.arity, left.arity + right.arity);
        assert!(
            left_arity > 0 && right.arity > 0,
            "a row list without arity"
        );
        let (cols, stride) = (right.len(), right.len().div_ceil(64));
        assert_eq!(words.len(), left.len() * stride, "one bit row per left row");
        debug_assert!(
            cols % 64 == 0
                || words
                    .chunks_exact(stride)
                    .all(|row| row[stride - 1] >> (cols % 64) == 0),
            "set padding bits"
        );
        let rows = words.iter().map(|w| w.count_ones() as usize).sum();
        let mut cells = Cells {
            rows,
            words,
            stride,
            left_arity,
            left: left.into_values(),
            right: right.into_values(),
            expanded: OnceLock::new(),
        };
        cells.words.shrink_to_fit();
        cells.left.shrink_to_fit();
        cells.right.shrink_to_fit();
        let product = Self {
            arity,
            form: Form::Cells(Box::new(cells)),
        };
        if product.heap_bytes() <= flat_bytes(rows * arity) {
            return product;
        }
        let values = product.into_values();
        Self::new(arity, values)
    }

    /// Values per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.form {
            Form::Flat(values) => values.len().checked_div(self.arity).unwrap_or(0),
            Form::Cells(cells) => cells.rows,
        }
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the rows are held as product cells.
    pub fn is_product(&self) -> bool {
        matches!(self.form, Form::Cells(_))
    }

    /// Every row's values, back to back (a product writes them on the first
    /// call and keeps them).
    pub fn values(&self) -> &[Value] {
        match &self.form {
            Form::Flat(values) => values,
            Form::Cells(cells) => cells
                .expanded
                .get_or_init(|| cells.write(self.arity, cells.rows)),
        }
    }

    /// Row `i` (a whole-answer read, as [`FlatRows::values`]).
    pub fn row(&self, i: usize) -> &[Value] {
        &self.values()[i * self.arity..][..self.arity]
    }

    /// The rows in order, each a slice of [`FlatRows::values`].
    pub fn iter(&self) -> std::slice::ChunksExact<'_, Value> {
        self.values().chunks_exact(self.arity.max(1))
    }

    /// The values of the first `n` rows (all of them if there are fewer):
    /// borrowed where they are written already, else written for this call
    /// alone.
    pub fn first(&self, n: usize) -> Cow<'_, [Value]> {
        let n = n.min(self.len());
        match &self.form {
            Form::Flat(values) => Cow::Borrowed(&values[..n * self.arity]),
            Form::Cells(cells) => match cells.expanded.get() {
                Some(values) => Cow::Borrowed(&values[..n * self.arity]),
                None => Cow::Owned(cells.write(self.arity, n)),
            },
        }
    }

    /// One `Vec` per row — for callers that compare against the
    /// row-of-rows reference functions.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.iter().map(<[Value]>::to_vec).collect()
    }

    /// Keeps the first `n` rows. Flat rows are cut in place; a product cut
    /// short becomes flat rows holding exactly the `n` it keeps.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        match &mut self.form {
            Form::Flat(values) => values.truncate(n * self.arity),
            Form::Cells(cells) => self.form = Form::Flat(cells.write(self.arity, n)),
        }
    }

    /// The rows' values, back to back, by value: the flat array itself, or a
    /// product's rows written once at their exact size.
    pub fn into_values(self) -> Vec<Value> {
        match self.form {
            Form::Flat(values) => values,
            Form::Cells(mut cells) => match cells.expanded.take() {
                Some(values) => values,
                None => cells.write(self.arity, cells.rows),
            },
        }
    }

    /// The rows as `(a, b)` pairs, for a caller that builds on pairs (a
    /// chain step makes a relation of them): a product writes each pair
    /// once, flat rows are regrouped.
    ///
    /// # Panics
    /// Panics unless the arity is 2.
    pub fn into_pairs(self) -> Vec<(Value, Value)> {
        assert_eq!(self.arity, 2, "pairs are rows of arity 2");
        match self.form {
            Form::Flat(values) => values.chunks_exact(2).map(|p| (p[0], p[1])).collect(),
            Form::Cells(cells) => {
                let mut pairs = Vec::with_capacity(cells.rows);
                let (left, right) = (&cells.left, &cells.right);
                cells.walk(cells.rows, |i, j| pairs.push((left[i], right[j])));
                pairs
            }
        }
    }

    /// The flat array, to change in place: a product is written out flat
    /// first and stays flat.
    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        if self.is_product() {
            let arity = self.arity;
            let values = std::mem::take(self).into_values();
            *self = Self::new(arity, values);
        }
        match &mut self.form {
            Form::Flat(values) => values,
            Form::Cells(_) => unreachable!("written out flat above"),
        }
    }

    /// Gives back a flat array's capacity past its rows (a product's parts
    /// are exact from construction).
    pub fn shrink_to_fit(&mut self) {
        if let Form::Flat(values) = &mut self.form {
            values.shrink_to_fit();
        }
    }

    /// Heap bytes the rows hold, from their arrays' capacities: the flat
    /// array, or a product's words, row lists and — once a whole-answer read
    /// wrote them — its rows.
    pub fn heap_bytes(&self) -> usize {
        match &self.form {
            Form::Flat(values) => flat_bytes(values.capacity()),
            Form::Cells(cells) => {
                let expanded = cells.expanded.get().map_or(0, Vec::capacity);
                let lists = cells.left.capacity() + cells.right.capacity();
                8 * cells.words.capacity() + flat_bytes(lists + expanded)
            }
        }
    }

    /// Sets the arity of rows still to come (a [`VecSink`](crate::VecSink)
    /// learns it from `begin`).
    pub(crate) fn set_arity(&mut self, arity: usize) {
        self.arity = arity;
    }
}

/// Bytes of `values` values.
fn flat_bytes(values: usize) -> usize {
    values * std::mem::size_of::<Value>()
}

impl Cells {
    /// Calls `cell(i, j)` for each of the first `n ≤ rows` set cells,
    /// row-major: the one walk every row written from a product takes.
    #[inline]
    fn walk(&self, n: usize, mut cell: impl FnMut(usize, usize)) {
        let mut left = n;
        if left == 0 {
            return;
        }
        for (i, words) in self.words.chunks_exact(self.stride).enumerate() {
            for (wk, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    cell(i, wk * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                    left -= 1;
                    if left == 0 {
                        return;
                    }
                }
            }
        }
    }

    /// The first `n ≤ rows` rows, at exactly their size. The splits a
    /// two-path and the stars of `k = 3, 4` have run at compile-time
    /// arities, where a row is a few moves; any other at the runtime ones.
    fn write(&self, arity: usize, n: usize) -> Vec<Value> {
        let mut out = vec![0 as Value; n * arity];
        match (self.left_arity, arity - self.left_arity) {
            (1, 1) => self.fill::<1, 1>(arity, &mut out),
            (2, 1) => self.fill::<2, 1>(arity, &mut out),
            (2, 2) => self.fill::<2, 2>(arity, &mut out),
            _ => self.fill::<0, 0>(arity, &mut out),
        }
        out
    }

    /// Fills `out` with rows, a set cell each. `A` and `B` are the left and
    /// right arities, or `0, 0` to read them.
    fn fill<const A: usize, const B: usize>(&self, arity: usize, out: &mut [Value]) {
        let (a, b) = if A == 0 {
            (self.left_arity, arity - self.left_arity)
        } else {
            (A, B)
        };
        debug_assert_eq!((a, a + b), (self.left_arity, arity));
        let mut slots = out.chunks_exact_mut(a + b);
        self.walk(slots.len(), |i, j| {
            let slot = slots.next().expect("one slot a cell");
            let (head, tail) = slot.split_at_mut(a);
            head.copy_from_slice(&self.left[i * a..][..a]);
            tail.copy_from_slice(&self.right[j * b..][..b]);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows `10..13` × columns `20..28`: the first two rows full, the third
    /// holding columns `20..24` — 20 cells, smaller as cells than as pairs.
    fn cells() -> FlatRows {
        let ids = |ids: std::ops::Range<Value>| FlatRows::new(1, ids.collect());
        FlatRows::product(vec![0xff, 0xff, 0x0f], ids(10..13), ids(20..28))
    }

    fn pairs() -> Vec<(Value, Value)> {
        let row = |x: Value, to: Value| (20..to).map(move |z| (x, z));
        row(10, 28).chain(row(11, 28)).chain(row(12, 24)).collect()
    }

    #[test]
    fn a_product_reads_as_its_cells_row_major() {
        let (rows, pairs) = (cells(), pairs());
        let values: Vec<Value> = pairs.iter().flat_map(|&(x, z)| [x, z]).collect();
        assert!(rows.is_product());
        assert_eq!((rows.len(), rows.arity()), (20, 2));
        assert_eq!(rows.heap_bytes(), 8 * 3 + 4 * 11);
        assert_eq!(&*rows.first(9), &values[..18]);
        assert_eq!(rows.clone().into_pairs(), pairs);
        assert_eq!(rows.clone().into_values(), values);
        assert_eq!(rows.row(19), [12, 23]);
        assert_eq!(
            rows.heap_bytes(),
            8 * 3 + 4 * (11 + 40),
            "the rows are kept"
        );
        assert_eq!(rows.into_pairs(), pairs);
    }

    #[test]
    fn a_product_turns_flat_where_it_is_changed() {
        let mut rows = cells();
        rows.values_mut().extend([13, 20]);
        assert!(!rows.is_product());
        assert_eq!(rows.len(), 21);
        assert_eq!(rows.row(20), [13, 20]);
        let mut cut = cells();
        cut.truncate(3);
        assert_eq!((cut.is_product(), cut.heap_bytes()), (false, 24));
        assert_eq!(cut, FlatRows::new(2, vec![10, 20, 10, 21, 10, 22]));
        assert_ne!(cut, cells());
    }
}
