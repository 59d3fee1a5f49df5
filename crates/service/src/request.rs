//! Owned query requests over catalog names, canonicalization, and the
//! query fingerprint the result cache is keyed by.
//!
//! [`mmjoin_api::Query`] borrows its relations; a service request instead
//! *names* them, so it can outlive any particular catalog state, travel
//! through the admission queue, and be hashed. Before hashing, a request
//! is [canonicalized](Request::canonical): fields that cannot affect the
//! result (an unused `min_count`, surrounding whitespace in names, a
//! redundant `ordered` flag representation) are normalized, so two
//! semantically equal requests produce the same fingerprint and share one
//! cache entry.

use mmjoin_api::QueryFamily;

/// One atom `R(x, y)` of a general request, phrased over a catalog name
/// and caller-chosen variable ids (canonicalization relabels them, so
/// any numbering works).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomSpec {
    /// Catalog name of the atom's relation.
    pub relation: String,
    /// Variable bound to the relation's first column.
    pub x: u32,
    /// Variable bound to the relation's second column.
    pub y: u32,
}

/// What to compute, phrased over catalog relation names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySpec {
    /// 2-path join-project `π_{x,z}(R(x,y) ⋈ S(z,y))`.
    TwoPath {
        /// Left relation name.
        r: String,
        /// Right relation name.
        s: String,
        /// Report exact witness counts per output pair.
        with_counts: bool,
        /// Minimum witness count (meaningful only with `with_counts`).
        min_count: u32,
    },
    /// Star join-project `Q*_k` over `k ≥ 1` named relations.
    Star {
        /// The star relation names, in output-column order.
        relations: Vec<String>,
    },
    /// Set-similarity self join with overlap threshold `c`.
    Similarity {
        /// The set-family relation name.
        r: String,
        /// Overlap threshold `c ≥ 1`.
        c: u32,
        /// Emit in descending-overlap order with counts.
        ordered: bool,
    },
    /// Set-containment self join.
    Containment {
        /// The set-family relation name.
        r: String,
    },
    /// A general acyclic join-project query over named atoms — the
    /// service-side mirror of [`mmjoin_api::QueryGraph`].
    General {
        /// The atoms, in declaration order.
        atoms: Vec<AtomSpec>,
        /// Projected variables, in output-column order.
        projection: Vec<u32>,
    },
}

/// A full service request: the query spec plus service-level options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What to compute.
    pub spec: QuerySpec,
    /// Emit at most this many rows (early-terminated via
    /// [`LimitSink`](mmjoin_api::LimitSink)). Part of the fingerprint: a
    /// truncated result is only reusable at the same limit.
    pub limit: Option<u64>,
    /// Pin a specific engine by registry name, bypassing the routing.
    /// Part of the fingerprint (engines agree on rows, but pinning also
    /// pins plan stats and ordering guarantees the caller may rely on).
    pub engine: Option<String>,
}

impl Request {
    /// A 2-path request without counts.
    pub fn two_path(r: impl Into<String>, s: impl Into<String>) -> Self {
        Self::from_spec(QuerySpec::TwoPath {
            r: r.into(),
            s: s.into(),
            with_counts: false,
            min_count: 1,
        })
    }

    /// A counting 2-path request keeping pairs with ≥ `min_count`
    /// witnesses.
    pub fn two_path_counts(r: impl Into<String>, s: impl Into<String>, min_count: u32) -> Self {
        Self::from_spec(QuerySpec::TwoPath {
            r: r.into(),
            s: s.into(),
            with_counts: true,
            min_count,
        })
    }

    /// A star request over the named relations.
    pub fn star<I, S>(relations: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::from_spec(QuerySpec::Star {
            relations: relations.into_iter().map(Into::into).collect(),
        })
    }

    /// A similarity-join request with threshold `c`.
    pub fn similarity(r: impl Into<String>, c: u32) -> Self {
        Self::from_spec(QuerySpec::Similarity {
            r: r.into(),
            c,
            ordered: false,
        })
    }

    /// A containment-join request.
    pub fn containment(r: impl Into<String>) -> Self {
        Self::from_spec(QuerySpec::Containment { r: r.into() })
    }

    /// A k-path chain request `Q(v0, vk) :- R1(v0, v1), R2(v1, v2), …`
    /// over the named relations.
    pub fn chain<I, S>(relations: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let atoms: Vec<AtomSpec> = relations
            .into_iter()
            .enumerate()
            .map(|(i, name)| AtomSpec {
                relation: name.into(),
                x: i as u32,
                y: i as u32 + 1,
            })
            .collect();
        let last = atoms.len() as u32;
        Self::from_spec(QuerySpec::General {
            atoms,
            projection: vec![0, last],
        })
    }

    /// A general acyclic request from explicit atoms and a projection
    /// list (validated against the catalog at execution time).
    pub fn general(atoms: Vec<AtomSpec>, projection: Vec<u32>) -> Self {
        Self::from_spec(QuerySpec::General { atoms, projection })
    }

    /// Wraps a spec with default options.
    pub fn from_spec(spec: QuerySpec) -> Self {
        Self {
            spec,
            limit: None,
            engine: None,
        }
    }

    /// Requests descending-overlap order (similarity only; no-op
    /// otherwise).
    pub fn ordered(mut self) -> Self {
        if let QuerySpec::Similarity { ordered, .. } = &mut self.spec {
            *ordered = true;
        }
        self
    }

    /// Caps the response at `limit` rows.
    pub fn limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Pins the engine by registry name.
    pub fn on_engine(mut self, engine: impl Into<String>) -> Self {
        self.engine = Some(engine.into());
        self
    }

    /// The workload family of this request.
    pub fn family(&self) -> QueryFamily {
        match &self.spec {
            QuerySpec::TwoPath { .. } => QueryFamily::TwoPath,
            QuerySpec::Star { .. } => QueryFamily::Star,
            QuerySpec::Similarity { .. } => QueryFamily::Similarity,
            QuerySpec::Containment { .. } => QueryFamily::Containment,
            QuerySpec::General { .. } => QueryFamily::General,
        }
    }

    /// The catalog names this request reads, in query order (duplicates
    /// preserved — a star query may use one relation several times).
    pub fn relation_names(&self) -> Vec<&str> {
        match &self.spec {
            QuerySpec::TwoPath { r, s, .. } => vec![r, s],
            QuerySpec::Star { relations } => relations.iter().map(String::as_str).collect(),
            QuerySpec::Similarity { r, .. } | QuerySpec::Containment { r } => vec![r],
            QuerySpec::General { atoms, .. } => atoms.iter().map(|a| a.relation.as_str()).collect(),
        }
    }

    /// The canonical form: semantically equal requests map to an
    /// identical value (and therefore an identical [fingerprint]).
    ///
    /// Normalizations applied:
    /// * relation names are trimmed of surrounding whitespace;
    /// * an uncounted 2-path ignores `min_count`, so it is pinned to 1;
    /// * a counting 2-path with `min_count = 0` is equivalent to
    ///   `min_count = 1` (witness counts are ≥ 1 by definition);
    /// * an explicit `limit` of `u64::MAX` is no limit at all;
    /// * general-query variables are relabelled densely by first
    ///   appearance (atom scan order, then projection), so isomorphic
    ///   graphs — the same chain written with different variable names —
    ///   share one fingerprint and one cache entry.
    ///
    /// [fingerprint]: Request::fingerprint
    pub fn canonical(mut self) -> Self {
        match &mut self.spec {
            QuerySpec::TwoPath {
                r,
                s,
                with_counts,
                min_count,
            } => {
                trim_in_place(r);
                trim_in_place(s);
                // Dead when counts are off; 0 means 1 when they're on.
                if !*with_counts || *min_count == 0 {
                    *min_count = 1;
                }
            }
            QuerySpec::Star { relations } => {
                for name in relations.iter_mut() {
                    trim_in_place(name);
                }
            }
            QuerySpec::Similarity { r, .. } => trim_in_place(r),
            QuerySpec::Containment { r } => trim_in_place(r),
            QuerySpec::General { atoms, projection } => {
                let mut relabel: Vec<u32> = Vec::new();
                let mut map = |v: u32| -> u32 {
                    match relabel.iter().position(|&seen| seen == v) {
                        Some(i) => i as u32,
                        None => {
                            relabel.push(v);
                            relabel.len() as u32 - 1
                        }
                    }
                };
                for atom in atoms.iter_mut() {
                    trim_in_place(&mut atom.relation);
                    atom.x = map(atom.x);
                    atom.y = map(atom.y);
                }
                for v in projection.iter_mut() {
                    *v = map(*v);
                }
            }
        }
        if self.limit == Some(u64::MAX) {
            self.limit = None;
        }
        if let Some(engine) = &mut self.engine {
            trim_in_place(engine);
        }
        self
    }

    /// 64-bit FNV-1a fingerprint of the canonical form. Two requests get
    /// the same fingerprint iff their canonical forms are identical; the
    /// cache combines it with the epochs of the referenced relations.
    pub fn fingerprint(&self) -> u64 {
        self.clone().canonical().fingerprint_assuming_canonical()
    }

    /// [`Request::fingerprint`] without the canonicalizing clone — for
    /// callers (the service's per-query hot path) that already hold the
    /// canonical form. On a non-canonical request this hashes the raw
    /// fields and will NOT match the canonical fingerprint.
    pub(crate) fn fingerprint_assuming_canonical(&self) -> u64 {
        let canon = self;
        let mut h = Fnv1a::new();
        match &canon.spec {
            QuerySpec::TwoPath {
                r,
                s,
                with_counts,
                min_count,
            } => {
                h.byte(0x01);
                h.str(r);
                h.str(s);
                h.byte(*with_counts as u8);
                h.u32(*min_count);
            }
            QuerySpec::Star { relations } => {
                h.byte(0x02);
                h.u32(relations.len() as u32);
                for name in relations {
                    h.str(name);
                }
            }
            QuerySpec::Similarity { r, c, ordered } => {
                h.byte(0x03);
                h.str(r);
                h.u32(*c);
                h.byte(*ordered as u8);
            }
            QuerySpec::Containment { r } => {
                h.byte(0x04);
                h.str(r);
            }
            QuerySpec::General { atoms, projection } => {
                h.byte(0x05);
                h.u32(atoms.len() as u32);
                for atom in atoms {
                    h.str(&atom.relation);
                    h.u32(atom.x);
                    h.u32(atom.y);
                }
                h.u32(projection.len() as u32);
                for &v in projection {
                    h.u32(v);
                }
            }
        }
        match canon.limit {
            Some(limit) => {
                h.byte(1);
                h.u64(limit);
            }
            None => h.byte(0),
        }
        match &canon.engine {
            Some(engine) => {
                h.byte(1);
                h.str(engine);
            }
            None => h.byte(0),
        }
        h.finish()
    }
}

fn trim_in_place(s: &mut String) {
    let trimmed = s.trim();
    if trimmed.len() != s.len() {
        *s = trimmed.to_string();
    }
}

/// Minimal FNV-1a 64-bit hasher (no external deps; stable across runs and
/// platforms, unlike `DefaultHasher`).
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// Hashes a string length-prefixed so `("ab","c")` ≠ `("a","bc")`.
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncounted_min_count_is_irrelevant() {
        let mut a = Request::two_path("R", "S");
        if let QuerySpec::TwoPath { min_count, .. } = &mut a.spec {
            *min_count = 42; // semantically dead field
        }
        let b = Request::two_path("R", "S");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn name_whitespace_is_irrelevant() {
        let a = Request::two_path("  R ", "S\t");
        let b = Request::two_path("R", "S");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn distinct_queries_hash_differently() {
        let fingerprints = [
            Request::two_path("R", "S").fingerprint(),
            Request::two_path("S", "R").fingerprint(),
            Request::two_path_counts("R", "S", 1).fingerprint(),
            Request::two_path_counts("R", "S", 2).fingerprint(),
            Request::star(["R", "S"]).fingerprint(),
            Request::similarity("R", 2).fingerprint(),
            Request::similarity("R", 2).ordered().fingerprint(),
            Request::containment("R").fingerprint(),
            Request::two_path("R", "S").limit(5).fingerprint(),
            Request::two_path("R", "S").on_engine("WCOJ").fingerprint(),
        ];
        for (i, a) in fingerprints.iter().enumerate() {
            for (j, b) in fingerprints.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "requests {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn isomorphic_general_queries_share_fingerprints() {
        // The same 3-chain written with three different variable
        // numberings collapses to one canonical form.
        let a = Request::chain(["R", "S", "T"]);
        let b = Request::general(
            vec![
                AtomSpec {
                    relation: "R".into(),
                    x: 10,
                    y: 20,
                },
                AtomSpec {
                    relation: "S".into(),
                    x: 20,
                    y: 30,
                },
                AtomSpec {
                    relation: "T".into(),
                    x: 30,
                    y: 40,
                },
            ],
            vec![10, 40],
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.clone().canonical(), b.clone().canonical());
        // A genuinely different query (projecting the other endpoint
        // pair order) does not collide.
        let c = Request::general(
            vec![
                AtomSpec {
                    relation: "R".into(),
                    x: 10,
                    y: 20,
                },
                AtomSpec {
                    relation: "S".into(),
                    x: 20,
                    y: 30,
                },
                AtomSpec {
                    relation: "T".into(),
                    x: 30,
                    y: 40,
                },
            ],
            vec![40, 10],
        );
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn chain_request_names_in_order() {
        let r = Request::chain(["A", "B", "A"]);
        assert_eq!(r.relation_names(), vec!["A", "B", "A"]);
        assert_eq!(r.family(), QueryFamily::General);
    }

    #[test]
    fn max_limit_is_no_limit() {
        let a = Request::two_path("R", "S").limit(u64::MAX);
        let b = Request::two_path("R", "S");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn relation_names_in_query_order() {
        assert_eq!(
            Request::star(["A", "B", "A"]).relation_names(),
            vec!["A", "B", "A"]
        );
        assert_eq!(Request::containment("R").relation_names(), vec!["R"]);
    }
}
