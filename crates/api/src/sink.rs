//! Streaming output visitors.

use mmjoin_storage::Value;

/// Receives query output rows as the engine produces them.
///
/// Engines call [`Sink::begin`] once with the output arity, then
/// [`Sink::row`] (or [`Sink::counted_row`] for counting queries) once per
/// distinct output row. Sinks that ignore counts get the plain row; sinks
/// that ignore rows entirely (e.g. [`CountSink`]) never allocate.
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

    /// Many uncounted rows at once: `flat` holds whole rows of `arity`
    /// values back to back. Takes them in order until the sink stops
    /// wanting rows and returns how many it took. The default is the
    /// per-row loop; [`VecSink`] overrides it with one copy, so a buffer
    /// handed to [`emit_flat`] reaches it without a call or an allocation
    /// per row.
    fn flat_rows(&mut self, arity: usize, flat: &[Value]) -> u64 {
        let mut rows = 0;
        for row in flat.chunks_exact(arity) {
            if !self.wants_more() {
                break;
            }
            self.row(row);
            rows += 1;
        }
        rows
    }
}

/// Rows stored as one flat array — `arity` values per row, rows back to
/// back. What [`VecSink`] collects, and what the service caches and serves
/// without ever taking it apart.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FlatRows {
    /// Values per row, as announced by the engine.
    pub arity: usize,
    /// The rows' values, in emission order.
    pub values: Vec<Value>,
}

impl FlatRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len().checked_div(self.arity).unwrap_or(0)
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.arity..][..self.arity]
    }

    /// The rows in order, each a slice of the flat array.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, Value> {
        self.values.chunks_exact(self.arity.max(1))
    }

    /// One `Vec` per row — for callers that compare against the
    /// row-of-rows reference functions.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.iter().map(<[Value]>::to_vec).collect()
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
        self.rows.arity = arity;
    }

    fn row(&mut self, row: &[Value]) {
        self.flat_rows(row.len(), row);
    }

    fn counted_row(&mut self, row: &[Value], count: u32) {
        // Rows that came without a count before this one read as 0.
        let uncounted = self.rows.len().saturating_sub(self.counts.len());
        self.counts.extend(std::iter::repeat_n(0, uncounted));
        self.rows.values.extend_from_slice(row);
        self.counts.push(count);
    }

    fn flat_rows(&mut self, arity: usize, flat: &[Value]) -> u64 {
        self.rows.values.extend_from_slice(flat);
        if !self.counts.is_empty() {
            self.counts.resize(self.rows.len(), 0);
        }
        (flat.len() / arity) as u64
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
}

/// Bounds an inner sink to at most `limit` rows — the `LIMIT` adapter.
///
/// Rows beyond the limit are dropped, and [`Sink::wants_more`] turns
/// `false` once the quota is reached so cooperative engines stop
/// *emitting* early. Note the bound applies to the output stream: the
/// current engines materialise their full result before streaming it,
/// so a limit saves emission and everything downstream of the sink (row
/// copies, caching, transport) but not the join computation itself.
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

    fn flat_rows(&mut self, arity: usize, flat: &[Value]) -> u64 {
        let room = usize::try_from(self.limit - self.emitted).unwrap_or(usize::MAX);
        let fits = room.min(flat.len() / arity);
        let taken = self.inner.flat_rows(arity, &flat[..fits * arity]);
        self.emitted += taken;
        taken
    }
}

/// Streams materialised pairs into `sink` (calling [`Sink::begin`] with
/// arity 2 first), stopping as soon as the sink stops wanting rows.
/// Returns the number of rows emitted — the shared emission loop every
/// pair-producing engine uses. The pairs go through [`Sink::flat_rows`] a
/// stack buffer at a time, so a flat store takes them without a call per
/// row.
pub fn emit_pairs(sink: &mut dyn Sink, pairs: &[(Value, Value)]) -> u64 {
    const CHUNK: usize = 512;
    sink.begin(2);
    let mut flat = [0; 2 * CHUNK];
    let mut rows = 0u64;
    for chunk in pairs.chunks(CHUNK) {
        for (cell, &(a, b)) in flat.chunks_exact_mut(2).zip(chunk) {
            cell.copy_from_slice(&[a, b]);
        }
        let taken = sink.flat_rows(2, &flat[..2 * chunk.len()]);
        rows += taken;
        if taken < chunk.len() as u64 {
            break;
        }
    }
    rows
}

/// Streams `(a, b, count)` triples into `sink` (arity 2). With
/// `counted`, rows go through [`Sink::counted_row`]; otherwise the count
/// is dropped and plain [`Sink::row`] is used (the unordered-similarity
/// contract). Stops early when the sink stops wanting rows; returns the
/// emitted row count.
pub fn emit_counted_pairs(
    sink: &mut dyn Sink,
    triples: &[(Value, Value, u32)],
    counted: bool,
) -> u64 {
    sink.begin(2);
    let mut rows = 0u64;
    for &(a, b, count) in triples {
        if !sink.wants_more() {
            break;
        }
        if counted {
            sink.counted_row(&[a, b], count);
        } else {
            sink.row(&[a, b]);
        }
        rows += 1;
    }
    rows
}

/// Streams a flat row buffer — `arity` values per row, rows back to back —
/// into `sink`, stopping early when the sink stops wanting rows; returns the
/// emitted row count. The whole buffer goes to [`Sink::flat_rows`] in one
/// call: what a sink keeps, it copies out of the buffer itself.
///
/// # Panics
/// Panics if `arity` is 0 or does not divide the buffer.
pub fn emit_flat(sink: &mut dyn Sink, arity: usize, flat: &[Value]) -> u64 {
    assert!(
        arity > 0 && flat.len().is_multiple_of(arity),
        "{} values are not rows of arity {arity}",
        flat.len()
    );
    sink.begin(arity);
    sink.flat_rows(arity, flat)
}

/// Accumulates signed deltas of arity-2 rows: the support counts behind
/// incremental view maintenance.
///
/// Each emitted row contributes `max(count, 1)` to that row's delta, so a
/// counting execution run into a `DeltaSink` drains to every output pair
/// with its witness count — the supports a cached result is maintained
/// from. (The *update* deltas are not accumulated here: the service's
/// `two_path_delta` emits them coalesced and in order.)
///
/// Emissions are appended to one flat buffer — no allocation per row —
/// and sorted and coalesced once, by
/// [`into_deltas`](DeltaSink::into_deltas).
#[derive(Debug, Clone, Default)]
pub struct DeltaSink {
    deltas: Vec<((Value, Value), i64)>,
}

impl DeltaSink {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to `row` directly, without going through the engine
    /// emission path (hand-computed, possibly negative, join terms).
    pub fn add(&mut self, row: &[Value], delta: i64) {
        assert_eq!(row.len(), 2, "DeltaSink requires arity-2 rows");
        if delta != 0 {
            self.deltas.push(((row[0], row[1]), delta));
        }
    }

    /// Consumes the sink: the distinct rows in ascending order, each with
    /// the sum of its deltas, without the rows that cancelled to zero.
    pub fn into_deltas(self) -> Vec<((Value, Value), i64)> {
        let mut deltas = self.deltas;
        deltas.sort_unstable_by_key(|&(row, _)| row);
        deltas.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        deltas.retain(|&(_, delta)| delta != 0);
        deltas
    }

    /// Number of emissions buffered so far (equal rows are not merged
    /// until [`into_deltas`](DeltaSink::into_deltas)).
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

impl Sink for DeltaSink {
    fn begin(&mut self, arity: usize) {
        assert_eq!(arity, 2, "DeltaSink requires arity-2 output, got {arity}");
    }

    fn row(&mut self, row: &[Value]) {
        self.add(row, 1);
    }

    fn counted_row(&mut self, row: &[Value], count: u32) {
        self.add(row, count.max(1) as i64);
    }
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
        assert_eq!(s.rows.arity, 2);
        assert_eq!(s.pairs(), vec![(1, 2), (3, 4)]);
        assert_eq!(s.counted_pairs(), vec![(1, 2, 0), (3, 4, 7)]);
        assert_eq!(s.rows.len(), 2);
        assert!(!s.rows.is_empty());
        assert_eq!(s.rows.values, [1, 2, 3, 4], "one flat array, no row boxes");
        assert_eq!(s.rows.row(1), [3, 4]);
        assert_eq!(s.rows.to_rows(), vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn vec_sink_leaves_counts_empty_until_a_row_carries_one() {
        let mut s = VecSink::new();
        s.begin(2);
        s.row(&[1, 2]);
        assert_eq!(s.flat_rows(2, &[3, 4, 5, 6]), 2);
        assert!(s.counts.is_empty());
        assert_eq!(s.counted_pairs(), vec![(1, 2, 0), (3, 4, 0), (5, 6, 0)]);
        s.counted_row(&[7, 8], 2);
        s.flat_rows(2, &[9, 9]);
        assert_eq!(s.counts, vec![0, 0, 0, 2, 0]);
        assert_eq!(VecSink::new().rows.len(), 0, "arity unknown before `begin`");
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
        let flat = [1, 2, 3, 4, 5, 6, 7, 8, 9];
        let mut all = VecSink::new();
        assert_eq!(emit_flat(&mut all, 3, &flat), 3);
        assert_eq!(all.rows.arity, 3);
        assert_eq!(all.rows.values, flat);
        assert_eq!(all.rows.iter().nth(2), Some(&[7, 8, 9][..]));
        let mut two = LimitSink::new(VecSink::new(), 2);
        assert_eq!(emit_flat(&mut two, 3, &flat), 2);
        assert!(two.limit_reached());
        assert_eq!(two.into_inner().rows.values, flat[..6]);
        assert_eq!(emit_flat(&mut CountSink::new(), 5, &[]), 0);
    }

    #[test]
    fn emit_pairs_cuts_through_chunks_at_the_limit() {
        // More pairs than one stack buffer holds, limits inside the first
        // chunk, on its edge and inside the second.
        let pairs: Vec<(Value, Value)> = (0..1300).map(|i| (i, i + 1)).collect();
        let mut all = VecSink::new();
        assert_eq!(emit_pairs(&mut all, &pairs), 1300);
        assert_eq!(all.pairs(), pairs);
        for limit in [0usize, 7, 512, 513, 1300, 5000] {
            let mut cut = LimitSink::new(VecSink::new(), limit as u64);
            let want = limit.min(pairs.len());
            assert_eq!(emit_pairs(&mut cut, &pairs), want as u64);
            assert_eq!(cut.limit_reached(), limit <= pairs.len());
            assert_eq!(cut.into_inner().pairs(), pairs[..want]);
        }
        let mut counted = CountSink::new();
        assert_eq!(emit_pairs(&mut counted, &pairs), 1300);
        assert_eq!(counted.rows, 1300);
    }

    #[test]
    #[should_panic(expected = "not rows of arity 2")]
    fn emit_flat_rejects_a_ragged_buffer() {
        emit_flat(&mut CountSink::new(), 2, &[1, 2, 3]);
    }

    #[test]
    fn limit_sink_zero_limit_wants_nothing() {
        let s = LimitSink::new(CountSink::new(), 0);
        assert!(!s.wants_more());
    }

    #[test]
    fn delta_sink_accumulates_signed_counts() {
        let mut s = DeltaSink::new();
        s.row(&[0, 3]); // emitted out of order: the drain sorts
        s.add(&[0, 3], -1);
        s.add(&[0, 3], -1); // net -1
        s.counted_row(&[0, 1], 2); // +2
        s.row(&[0, 2]); // +1
        s.add(&[0, 1], -1); // net +1
        assert_eq!(s.len(), 6, "emissions are buffered, not merged");
        assert_eq!(
            s.into_deltas(),
            vec![((0, 1), 1), ((0, 2), 1), ((0, 3), -1)]
        );
    }

    #[test]
    fn delta_sink_drops_cancelled_rows() {
        let mut s = DeltaSink::new();
        s.counted_row(&[7, 7], 3);
        s.row(&[1, 1]);
        s.add(&[7, 7], -3);
        assert_eq!(s.into_deltas(), vec![((1, 1), 1)]);
        assert!(DeltaSink::new().into_deltas().is_empty());
    }

    #[test]
    fn delta_sink_uncounted_rows_weigh_one() {
        // row() and counted_row(_, 1) must agree, so maintenance terms can
        // come from either emission path.
        let mut a = DeltaSink::new();
        a.row(&[1, 2]);
        let mut b = DeltaSink::new();
        b.counted_row(&[1, 2], 1);
        assert_eq!(a.into_deltas(), b.into_deltas());
    }

    #[test]
    #[should_panic(expected = "arity-2")]
    fn delta_sink_rejects_wrong_arity() {
        let mut s = DeltaSink::new();
        s.begin(3);
    }
}
