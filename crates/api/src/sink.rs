//! Streaming output visitors.

pub use crate::rows::FlatRows;
use mmjoin_storage::Value;

/// Receives query output rows as the engine produces them.
///
/// Engines call [`Sink::begin`] once with the output arity, then hand over
/// their finished answer whole through [`Sink::take_rows`] (the
/// `emit_*` functions do both); rows can also arrive one at a time through
/// [`Sink::row`] (or [`Sink::counted_row`] for counting queries). Sinks
/// that ignore counts get the plain row; sinks that ignore rows entirely
/// (e.g. [`CountSink`]) never allocate.
pub trait Sink {
    /// Called once before the first row with the output arity.
    fn begin(&mut self, arity: usize) {
        let _ = arity;
    }

    /// One distinct output row.
    fn row(&mut self, row: &[Value]);

    /// One distinct output row with its witness multiplicity (counting
    /// 2-path queries and similarity joins). Defaults to dropping the
    /// count.
    fn counted_row(&mut self, row: &[Value], count: u32) {
        let _ = count;
        self.row(row);
    }

    /// Whether the sink wants further rows. Engines consult this between
    /// emissions and may stop enumerating as soon as it turns `false`
    /// (early termination for `LIMIT`-style requests — see [`LimitSink`]).
    /// Engines are free to keep emitting; a bounding sink must therefore
    /// also *drop* excess rows itself, which [`LimitSink`] does.
    fn wants_more(&self) -> bool {
        true
    }

    /// A finished answer handed over whole: `rows`, and — for a counted
    /// answer — one witness count per row in `counts` (empty otherwise).
    /// Takes rows in order until the sink stops wanting them and returns how
    /// many it took. The default is the per-row loop, for sinks that keep
    /// nothing; a sink that stores rows ([`VecSink`]) keeps the buffers
    /// themselves, so the engine's write is the answer's only one.
    fn take_rows(&mut self, rows: FlatRows, counts: Vec<u32>) -> u64 {
        let mut taken = 0;
        for (i, row) in rows.iter().enumerate() {
            if !self.wants_more() {
                break;
            }
            match counts.get(i) {
                Some(&count) => self.counted_row(row, count),
                None => self.row(row),
            }
            taken += 1;
        }
        taken
    }
}

/// Materialises every row (and count).
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// The rows, in emission order.
    pub rows: FlatRows,
    /// Per-row witness counts, 0 for a row emitted without one; left empty
    /// when no row carried a count.
    pub counts: Vec<u32>,
}

impl VecSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rows as `(a, b)` pairs (output arity must be 2).
    pub fn pairs(&self) -> Vec<(Value, Value)> {
        self.rows.iter().map(|r| (r[0], r[1])).collect()
    }

    /// The rows as `(a, b, count)` triples (arity must be 2).
    pub fn counted_pairs(&self) -> Vec<(Value, Value, u32)> {
        let counts = self.counts.iter().copied().chain(std::iter::repeat(0));
        let rows = self.rows.iter().zip(counts);
        rows.map(|(r, c)| (r[0], r[1], c)).collect()
    }
}

impl Sink for VecSink {
    fn begin(&mut self, arity: usize) {
        self.rows.set_arity(arity);
    }

    fn row(&mut self, row: &[Value]) {
        self.rows.values_mut().extend_from_slice(row);
        if !self.counts.is_empty() {
            self.counts.push(0);
        }
    }

    fn counted_row(&mut self, row: &[Value], count: u32) {
        // Rows that came without a count before this one read as 0.
        let uncounted = self.rows.len().saturating_sub(self.counts.len());
        self.counts.extend(std::iter::repeat_n(0, uncounted));
        self.rows.values_mut().extend_from_slice(row);
        self.counts.push(count);
    }

    fn take_rows(&mut self, rows: FlatRows, counts: Vec<u32>) -> u64 {
        let taken = rows.len() as u64;
        if self.rows.is_empty() && self.counts.is_empty() {
            // Nothing stored yet: the handed buffers — flat rows or product
            // cells — become the store.
            (self.rows, self.counts) = (rows, counts);
            return taken;
        }
        let before = self.rows.len();
        self.rows.values_mut().extend(rows.into_values());
        if !counts.is_empty() {
            self.counts.resize(before, 0);
            self.counts.extend(counts);
        } else if !self.counts.is_empty() {
            self.counts.resize(self.rows.len(), 0);
        }
        taken
    }
}

/// Materialises arity-2 output as flat pairs — cheaper than [`VecSink`]
/// for the (dominant) binary workloads.
#[derive(Debug, Default, Clone)]
pub struct PairSink {
    /// The output pairs, in emission order.
    pub pairs: Vec<(Value, Value)>,
}

impl PairSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, returning the pairs.
    pub fn into_pairs(self) -> Vec<(Value, Value)> {
        self.pairs
    }
}

impl Sink for PairSink {
    fn begin(&mut self, arity: usize) {
        assert_eq!(arity, 2, "PairSink requires arity-2 output, got {arity}");
    }

    fn row(&mut self, row: &[Value]) {
        self.pairs.push((row[0], row[1]));
    }

    fn take_rows(&mut self, rows: FlatRows, _counts: Vec<u32>) -> u64 {
        assert_eq!(rows.arity(), 2, "PairSink requires arity-2 output");
        // One pass at the exact size: the flat values regrouped as pairs.
        self.pairs.extend(rows.iter().map(|r| (r[0], r[1])));
        rows.len() as u64
    }
}

/// Counts rows without storing them — the "how big is the output" sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountSink {
    /// Rows seen so far.
    pub rows: u64,
    /// Sum of witness counts over counted rows.
    pub witness_total: u64,
}

impl CountSink {
    /// Zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sink for CountSink {
    fn row(&mut self, _row: &[Value]) {
        self.rows += 1;
    }

    fn counted_row(&mut self, _row: &[Value], count: u32) {
        self.rows += 1;
        self.witness_total += count as u64;
    }

    fn take_rows(&mut self, rows: FlatRows, counts: Vec<u32>) -> u64 {
        // A product's rows are counted, never written.
        self.rows += rows.len() as u64;
        self.witness_total += counts.iter().map(|&c| c as u64).sum::<u64>();
        rows.len() as u64
    }
}

/// Bounds an inner sink to at most `limit` rows — the `LIMIT` adapter.
///
/// Rows beyond the limit are dropped, and [`Sink::wants_more`] turns
/// `false` once the quota is reached so cooperative engines stop
/// *emitting* early. Note the bound applies to the output stream: the
/// current engines materialise their full result before handing it over,
/// so a limit saves what happens downstream of the sink (caching,
/// transport) but not the join computation itself. A handed-over buffer
/// is cut in place — [`Sink::take_rows`] truncates it to the rows that fit
/// and passes it on — so a limited answer is never copied either; its
/// buffer keeps the full answer's capacity until its owner shrinks it. A
/// handed-over product is cut by writing exactly the rows that fit, at
/// their exact size ([`FlatRows::truncate`]).
#[derive(Debug, Clone)]
pub struct LimitSink<S: Sink> {
    inner: S,
    limit: u64,
    emitted: u64,
}

impl<S: Sink> LimitSink<S> {
    /// Caps `inner` at `limit` rows.
    pub fn new(inner: S, limit: u64) -> Self {
        Self {
            inner,
            limit,
            emitted: 0,
        }
    }

    /// Rows forwarded to the inner sink so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether the limit was reached. The stream *may* have been cut
    /// short — an output of exactly `limit` rows also reports `true`,
    /// because a cooperative engine stops before revealing whether more
    /// rows existed.
    pub fn limit_reached(&self) -> bool {
        self.emitted >= self.limit
    }

    /// Consumes the adapter, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Sink> Sink for LimitSink<S> {
    fn begin(&mut self, arity: usize) {
        self.inner.begin(arity);
    }

    fn row(&mut self, row: &[Value]) {
        if self.emitted < self.limit {
            self.emitted += 1;
            self.inner.row(row);
        }
    }

    fn counted_row(&mut self, row: &[Value], count: u32) {
        if self.emitted < self.limit {
            self.emitted += 1;
            self.inner.counted_row(row, count);
        }
    }

    fn wants_more(&self) -> bool {
        self.emitted < self.limit && self.inner.wants_more()
    }

    fn take_rows(&mut self, mut rows: FlatRows, mut counts: Vec<u32>) -> u64 {
        let room = usize::try_from(self.limit - self.emitted).unwrap_or(usize::MAX);
        if rows.len() > room {
            rows.truncate(room);
            counts.truncate(room);
        }
        let taken = self.inner.take_rows(rows, counts);
        self.emitted += taken;
        taken
    }
}

/// `pairs` as the flat array of their values, `a, b` after `a, b`: the
/// same allocation, reread as twice as many values — nothing is copied.
pub fn flatten_pairs(pairs: Vec<(Value, Value)>) -> Vec<Value> {
    // A pair is two values back to back, `.0` first, with no padding, and
    // aligned as one value: the layout facts the reinterpretation rests on.
    const _: () = {
        assert!(size_of::<(Value, Value)>() == 2 * size_of::<Value>());
        assert!(align_of::<(Value, Value)>() == align_of::<Value>());
        assert!(std::mem::offset_of!((Value, Value), 0) == 0);
        assert!(std::mem::offset_of!((Value, Value), 1) == size_of::<Value>());
    };
    if pairs.capacity() == 0 {
        return Vec::new();
    }
    let mut pairs = std::mem::ManuallyDrop::new(pairs);
    let (ptr, len, cap) = (pairs.as_mut_ptr(), pairs.len(), pairs.capacity());
    // SAFETY: `ptr` comes from a `Vec<(Value, Value)>` that is never used or
    // dropped again (`ManuallyDrop`), so the new `Vec` is the allocation's
    // only owner. By the asserts above a pair is two initialised values at
    // offsets 0 and `size_of::<Value>()` with no padding, so the first
    // `2 * len` values are initialised; the block of `cap` pairs is exactly
    // `2 * cap` values, and the alignment is the same, so the layout the
    // allocator is handed back on drop is the one it allocated (`cap > 0`:
    // the pointer is a real allocation, not `Vec`'s dangling one).
    unsafe { Vec::from_raw_parts(ptr.cast::<Value>(), 2 * len, 2 * cap) }
}

/// Hands materialised pairs to `sink` (calling [`Sink::begin`] with arity 2
/// first) as one flat buffer — the pairs' own allocation, reread by
/// [`flatten_pairs`] — and returns the number of rows it took. The shared
/// emission path of every pair-producing engine: a storing sink keeps the
/// engine's buffer, so the answer is written once.
pub fn emit_pairs(sink: &mut dyn Sink, pairs: Vec<(Value, Value)>) -> u64 {
    emit_flat(sink, 2, flatten_pairs(pairs))
}

/// Hands `(a, b, count)` triples to `sink` (arity 2) as one flat buffer of
/// pairs and, with `counted`, one of their counts, both filled in one pass
/// at their exact sizes; without `counted` the counts are dropped (the
/// unordered-similarity contract). Returns the number of rows the sink took.
pub fn emit_counted_pairs(
    sink: &mut dyn Sink,
    triples: &[(Value, Value, u32)],
    counted: bool,
) -> u64 {
    sink.begin(2);
    let mut values = Vec::with_capacity(2 * triples.len());
    let mut counts = Vec::with_capacity(if counted { triples.len() } else { 0 });
    for &(a, b, count) in triples {
        values.extend([a, b]);
        if counted {
            counts.push(count);
        }
    }
    sink.take_rows(FlatRows::new(2, values), counts)
}

/// Hands a flat row buffer — `arity` values per row, rows back to back — to
/// `sink` whole ([`emit_rows`]).
///
/// # Panics
/// Panics if `arity` is 0 or does not divide the buffer.
pub fn emit_flat(sink: &mut dyn Sink, arity: usize, values: Vec<Value>) -> u64 {
    assert!(arity > 0, "rows of arity 0");
    emit_rows(sink, FlatRows::new(arity, values))
}

/// Hands `rows` — flat or product cells — to `sink` whole through
/// [`Sink::take_rows`] (calling [`Sink::begin`] with their arity first) and
/// returns the number of rows it took: a storing sink keeps them as they
/// are, a bounding one cuts them.
pub fn emit_rows(sink: &mut dyn Sink, rows: FlatRows) -> u64 {
    sink.begin(rows.arity());
    sink.take_rows(rows, Vec::new())
}

/// Adapts a closure `FnMut(&[Value], u32)` into a [`Sink`]; the count is 0
/// for uncounted rows.
pub struct ForEachSink<F: FnMut(&[Value], u32)>(pub F);

impl<F: FnMut(&[Value], u32)> Sink for ForEachSink<F> {
    fn row(&mut self, row: &[Value]) {
        (self.0)(row, 0);
    }

    fn counted_row(&mut self, row: &[Value], count: u32) {
        (self.0)(row, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_records_rows_and_counts() {
        let mut s = VecSink::new();
        s.begin(2);
        s.row(&[1, 2]);
        s.counted_row(&[3, 4], 7);
        assert_eq!(s.rows.arity(), 2);
        assert_eq!(s.pairs(), vec![(1, 2), (3, 4)]);
        assert_eq!(s.counted_pairs(), vec![(1, 2, 0), (3, 4, 7)]);
        assert_eq!(s.rows.len(), 2);
        assert!(!s.rows.is_empty());
        assert_eq!(
            s.rows.values(),
            [1, 2, 3, 4],
            "one flat array, no row boxes"
        );
        assert_eq!(s.rows.row(1), [3, 4]);
        assert_eq!(s.rows.to_rows(), vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn vec_sink_leaves_counts_empty_until_a_row_carries_one() {
        let flat = |values: Vec<Value>| FlatRows::new(2, values);
        let mut s = VecSink::new();
        s.begin(2);
        s.row(&[1, 2]);
        assert_eq!(s.take_rows(flat(vec![3, 4, 5, 6]), Vec::new()), 2);
        assert!(s.counts.is_empty());
        assert_eq!(s.counted_pairs(), vec![(1, 2, 0), (3, 4, 0), (5, 6, 0)]);
        s.counted_row(&[7, 8], 2);
        s.take_rows(flat(vec![9, 9]), Vec::new());
        s.row(&[8, 8]);
        s.take_rows(flat(vec![6, 6, 5, 5]), vec![3, 4]);
        assert_eq!(s.counts, vec![0, 0, 0, 2, 0, 0, 3, 4]);
        let mut late = VecSink::new();
        late.begin(2);
        late.row(&[1, 1]);
        late.take_rows(flat(vec![2, 2]), vec![9]);
        assert_eq!(late.counts, vec![0, 9], "earlier rows read as uncounted");
        assert_eq!(VecSink::new().rows.len(), 0, "arity unknown before `begin`");
    }

    #[test]
    fn an_empty_vec_sink_keeps_the_buffers_it_is_handed() {
        let values: Vec<Value> = (0..1000).collect();
        let counts: Vec<u32> = (0..500).collect();
        let (v, c) = (values.as_ptr(), counts.as_ptr());
        let mut s = VecSink::new();
        assert_eq!(s.take_rows(FlatRows::new(2, values), counts), 500);
        assert!(std::ptr::eq(s.rows.values().as_ptr(), v), "values adopted");
        assert!(std::ptr::eq(s.counts.as_ptr(), c), "counts adopted");
        assert_eq!((s.rows.arity(), s.rows.len(), s.counts[499]), (2, 500, 499));
    }

    #[test]
    fn flattening_pairs_rereads_their_allocation() {
        let mut pairs: Vec<(Value, Value)> = Vec::with_capacity(7);
        pairs.extend([(1, 2), (3, 4), (5, 6)]);
        let at = pairs.as_ptr().cast::<Value>();
        let flat = flatten_pairs(pairs);
        assert_eq!(flat, [1, 2, 3, 4, 5, 6]);
        assert!(std::ptr::eq(flat.as_ptr(), at));
        assert_eq!(flat.capacity(), 14);
        assert!(flatten_pairs(Vec::new()).is_empty());
        let mut grown = flatten_pairs(vec![(7, 8)]);
        grown.extend(0..100);
        assert_eq!(grown[..3], [7, 8, 0], "the allocator takes the block back");
    }

    #[test]
    fn count_sink_counts_without_storing() {
        let mut s = CountSink::new();
        s.row(&[0, 0]);
        s.counted_row(&[0, 1], 5);
        s.counted_row(&[0, 2], 2);
        assert_eq!(s.rows, 3);
        assert_eq!(s.witness_total, 7);
    }

    #[test]
    fn for_each_sink_streams() {
        let mut seen = Vec::new();
        {
            let mut s = ForEachSink(|row: &[Value], c| seen.push((row.to_vec(), c)));
            s.row(&[9, 9]);
            s.counted_row(&[1, 1], 3);
        }
        assert_eq!(seen, vec![(vec![9, 9], 0), (vec![1, 1], 3)]);
    }

    #[test]
    #[should_panic(expected = "arity-2")]
    fn pair_sink_rejects_wrong_arity() {
        let mut s = PairSink::new();
        s.begin(3);
    }

    #[test]
    fn limit_sink_caps_and_signals() {
        let mut s = LimitSink::new(VecSink::new(), 2);
        s.begin(2);
        assert!(s.wants_more());
        s.row(&[0, 0]);
        s.counted_row(&[0, 1], 3);
        assert!(!s.wants_more());
        // Non-cooperative engine keeps emitting: rows are dropped.
        s.row(&[0, 2]);
        assert_eq!(s.emitted(), 2);
        assert!(s.limit_reached());
        let inner = s.into_inner();
        assert_eq!(inner.pairs(), vec![(0, 0), (0, 1)]);
        assert_eq!(inner.counts, vec![0, 3]);
    }

    #[test]
    fn emit_flat_streams_rows_until_the_sink_has_enough() {
        let flat = vec![1, 2, 3, 4, 5, 6, 7, 8, 9];
        let mut all = VecSink::new();
        assert_eq!(emit_flat(&mut all, 3, flat.clone()), 3);
        assert_eq!(all.rows.arity(), 3);
        assert_eq!(all.rows.values(), flat);
        assert_eq!(all.rows.iter().nth(2), Some(&[7, 8, 9][..]));
        let mut two = LimitSink::new(VecSink::new(), 2);
        assert_eq!(emit_flat(&mut two, 3, flat.clone()), 2);
        assert!(two.limit_reached());
        assert_eq!(two.into_inner().rows.values(), &flat[..6]);
        assert_eq!(emit_flat(&mut CountSink::new(), 5, Vec::new()), 0);
        // A sink that keeps nothing takes the rows one at a time.
        let mut seen = Vec::new();
        let mut each = LimitSink::new(ForEachSink(|row: &[Value], _| seen.push(row[0])), 2);
        assert_eq!(emit_flat(&mut each, 3, flat), 2);
        assert_eq!(seen, [1, 4]);
    }

    #[test]
    fn emit_pairs_cuts_the_handed_buffer_at_the_limit() {
        let pairs: Vec<(Value, Value)> = (0..1300).map(|i| (i, i + 1)).collect();
        let mut all = VecSink::new();
        let at = pairs.as_ptr().cast::<Value>();
        assert_eq!(emit_pairs(&mut all, pairs.clone()), 1300);
        assert_eq!(all.pairs(), pairs);
        let mut kept = VecSink::new();
        emit_pairs(&mut kept, pairs);
        assert!(std::ptr::eq(kept.rows.values().as_ptr(), at), "no copy");
        let pairs = kept.pairs();
        for limit in [0usize, 1, 1300, 1305] {
            let mut cut = LimitSink::new(VecSink::new(), limit as u64);
            let want = limit.min(pairs.len());
            assert_eq!(emit_pairs(&mut cut, pairs.clone()), want as u64);
            assert_eq!(cut.limit_reached(), limit <= pairs.len());
            let inner = cut.into_inner();
            assert_eq!(inner.pairs(), pairs[..want]);
            assert_eq!(inner.rows.values().len(), 2 * want);
        }
        let mut counted = CountSink::new();
        assert_eq!(emit_pairs(&mut counted, pairs.clone()), 1300);
        assert_eq!(counted.rows, 1300);
        let mut regrouped = PairSink::new();
        assert_eq!(emit_pairs(&mut regrouped, pairs.clone()), 1300);
        assert_eq!(regrouped.into_pairs(), pairs);
    }

    #[test]
    fn counted_triples_arrive_as_two_exact_buffers() {
        let triples: Vec<(Value, Value, u32)> = (0..300).map(|i| (i, i + 1, i % 7)).collect();
        let mut all = VecSink::new();
        assert_eq!(emit_counted_pairs(&mut all, &triples, true), 300);
        assert_eq!(all.counted_pairs(), triples);
        assert_eq!(all.counts.capacity(), 300);
        assert_eq!(std::mem::take(&mut all.rows).into_values().capacity(), 600);
        let mut dropped = VecSink::new();
        emit_counted_pairs(&mut dropped, &triples, false);
        assert!(dropped.counts.is_empty() && dropped.rows.len() == 300);
        let mut cut = LimitSink::new(VecSink::new(), 5);
        assert_eq!(emit_counted_pairs(&mut cut, &triples, true), 5);
        assert_eq!(cut.into_inner().counted_pairs(), triples[..5]);
        let mut totals = CountSink::new();
        emit_counted_pairs(&mut totals, &triples, true);
        let witnesses: u64 = triples.iter().map(|t| t.2 as u64).sum();
        assert_eq!((totals.rows, totals.witness_total), (300, witnesses));
    }

    #[test]
    #[should_panic(expected = "not rows of arity 2")]
    fn emit_flat_rejects_a_ragged_buffer() {
        emit_flat(&mut CountSink::new(), 2, vec![1, 2, 3]);
    }

    #[test]
    fn limit_sink_zero_limit_wants_nothing() {
        let s = LimitSink::new(CountSink::new(), 0);
        assert!(!s.wants_more());
    }
}
