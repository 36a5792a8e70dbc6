//! LRU result cache keyed by canonical query form.
//!
//! Entries are bucketed by the canonical *skeleton* (tree shape + predicates,
//! no output marks).  A lookup hits when the bucket holds an entry whose
//! output nodes sit at the same canonical positions and whose query is
//! confirmed equivalent by [`gtpq_analysis::equivalent`] — so syntactically
//! different spellings of one pattern share a slot, and a normalization bug
//! can cost a miss but never a wrong answer.  When the incoming query labels
//! or orders its output coordinates differently from the cached one, the
//! tuples are permuted into the caller's coordinate order before being
//! handed out.
//!
//! Eviction is least-recently-used over all entries.  The victim search is a
//! linear scan: capacities are small (hundreds), evictions happen only on
//! insert, and keeping the structure a plain `HashMap` keeps hits — the hot
//! path — allocation-free.

use std::collections::HashMap;
use std::sync::Arc;

use gtpq_core::QueryPlan;
use gtpq_query::{Gtpq, ResultSet};

use crate::canon::CanonicalQuery;

struct CacheEntry {
    key: String,
    query: Arc<Gtpq>,
    output_positions: Vec<usize>,
    results: Arc<ResultSet>,
    last_used: u64,
}

impl CacheEntry {
    /// Whether a query with canonical form `canon` hits this entry.
    ///
    /// Equal full keys prove equivalence outright (canonicalization is
    /// sound), so the common warm path — resubmitting the same query — never
    /// pays for the containment search in [`gtpq_analysis::equivalent`].
    fn matches(&self, canon: &CanonicalQuery, q: &Gtpq) -> bool {
        if !same_position_set(&self.output_positions, &canon.output_positions) {
            return false;
        }
        // The skeleton already matched; this confirms true equivalence
        // (Theorem 4) so a normalization gap cannot produce a stale hit.
        self.key == canon.key || gtpq_analysis::equivalent(q, &self.query)
    }
}

/// An LRU cache from canonicalized queries to shared result sets.
///
/// The cache carries a *graph generation* (its epoch): every
/// entry it holds was computed against that generation of the data graph.
/// [`invalidate`](Self::invalidate) drops everything and advances the
/// generation when the graph mutates, and [`insert`](Self::insert) refuses
/// entries stamped with an older generation — a request that pinned the
/// previous snapshot and finished after a commit cannot poison the new
/// generation with a pre-write answer.
pub struct ResultCache {
    capacity: usize,
    buckets: HashMap<String, Vec<CacheEntry>>,
    len: usize,
    tick: u64,
    epoch: u64,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` result sets (0 disables
    /// caching: every lookup misses and inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            buckets: HashMap::new(),
            len: 0,
            tick: 0,
            epoch: 0,
        }
    }

    /// Number of cached result sets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The graph generation the cached answers belong to.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drops every entry and advances the cache to graph generation
    /// `epoch`, returning how many entries were evicted.  Inserts stamped
    /// with an older generation are ignored from then on.
    pub fn invalidate(&mut self, epoch: u64) -> usize {
        let evicted = self.len;
        self.buckets.clear();
        self.len = 0;
        self.epoch = epoch;
        evicted
    }

    /// Looks up `q` (with canonical form `canon`) on behalf of a request
    /// pinned to graph generation `epoch`, returning results in `q`'s own
    /// output coordinates on a hit.
    ///
    /// A request pinned to a generation other than the cache's misses
    /// unconditionally: after a commit, a reader still holding the old
    /// epoch state must not be served an answer computed against the new
    /// graph (the rows would disagree with the epoch the outcome claims).
    ///
    /// A hit through an entry with a different output orientation permutes
    /// the cached tuples once and stores the permuted set as its own entry,
    /// so repeated requests in that spelling are allocation-free after the
    /// first.
    pub fn lookup(
        &mut self,
        epoch: u64,
        canon: &CanonicalQuery,
        q: &Gtpq,
    ) -> Option<Arc<ResultSet>> {
        if epoch != self.epoch {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let bucket = self.buckets.get_mut(canon.skeleton())?;
        // Prefer the entry in this query's own orientation (equal key) —
        // including orientation entries stored by earlier permuted hits.
        if let Some(entry) = bucket.iter_mut().find(|e| e.key == canon.key) {
            entry.last_used = tick;
            if entry.results.output == q.output_nodes() {
                return Some(Arc::clone(&entry.results));
            }
            return Some(Arc::new(permute_results(
                &entry.results,
                &entry.output_positions,
                canon,
                q,
            )));
        }
        let mut permuted = None;
        for entry in bucket.iter_mut() {
            if !entry.matches(canon, q) {
                continue;
            }
            entry.last_used = tick;
            permuted = Some(Arc::new(permute_results(
                &entry.results,
                &entry.output_positions,
                canon,
                q,
            )));
            break;
        }
        let results = permuted?;
        let epoch = self.epoch;
        self.insert(epoch, canon, Arc::new(q.clone()), Arc::clone(&results));
        Some(results)
    }

    /// Inserts a result set computed against graph generation `epoch`,
    /// evicting the LRU entry when full.  An insert stamped with a
    /// generation other than the cache's current one is dropped — the
    /// answer predates a mutation and must not be served post-write.
    ///
    /// When an entry with the same canonical key is already cached —
    /// concurrent misses on one hot query race lookup-then-insert — the
    /// existing entry is kept (and refreshed) instead of storing a
    /// duplicate, so racing threads cannot crowd distinct queries out of the
    /// cache.  Equivalent queries with *different* keys (other output
    /// orientation or spelling) do get their own entry: that is how
    /// [`lookup`](Self::lookup) caches permuted orientations.
    pub fn insert(
        &mut self,
        epoch: u64,
        canon: &CanonicalQuery,
        q: Arc<Gtpq>,
        results: Arc<ResultSet>,
    ) {
        if self.capacity == 0 || epoch != self.epoch {
            return;
        }
        self.tick += 1;
        if let Some(bucket) = self.buckets.get_mut(canon.skeleton()) {
            if let Some(entry) = bucket.iter_mut().find(|e| e.key == canon.key) {
                entry.last_used = self.tick;
                return;
            }
        }
        if self.len >= self.capacity {
            self.evict_lru();
        }
        self.buckets
            .entry(canon.skeleton().to_owned())
            .or_default()
            .push(CacheEntry {
                key: canon.key.clone(),
                query: q,
                output_positions: canon.output_positions.clone(),
                results,
                last_used: self.tick,
            });
        self.len += 1;
    }

    fn evict_lru(&mut self) {
        let victim = self
            .buckets
            .iter()
            .flat_map(|(k, entries)| entries.iter().map(move |e| (e.last_used, k)))
            .min_by_key(|&(t, _)| t)
            .map(|(_, k)| k.clone());
        if let Some(key) = victim {
            let entries = self.buckets.get_mut(&key).expect("victim bucket exists");
            let (idx, _) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .expect("victim bucket is non-empty");
            entries.remove(idx);
            if entries.is_empty() {
                self.buckets.remove(&key);
            }
            self.len -= 1;
        }
    }
}

/// LRU cache from canonical query keys to shared physical plans.
///
/// Sits beside [`ResultCache`]: results answer repeated queries outright,
/// while plans survive result evictions and serve every execution of a
/// recurring query shape without re-planning.  Keyed by the canonical key —
/// but a plan's steps are bound to one spelling's `QueryNodeId` numbering,
/// and respellings of one pattern (which share a canonical key) can number
/// their nodes differently.  Each entry therefore stores the query it was
/// planned for and a lookup hits only on an exact structural match; a
/// permuted respelling misses and re-plans (planning is microseconds),
/// taking over the slot.
struct PlanEntry {
    query: Arc<Gtpq>,
    plan: Arc<QueryPlan>,
    last_used: u64,
}

/// An LRU plan cache safe against respelling permutations (each entry keeps
/// the query it was planned for; see the module comment above).
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<String, PlanEntry>,
    tick: u64,
    epoch: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (0 disables it).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: HashMap::new(),
            tick: 0,
            epoch: 0,
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The graph generation the cached plans were built against.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drops every plan and advances the cache to graph generation `epoch`
    /// (plans embed the old graph's cardinality estimates), returning how
    /// many entries were evicted.
    pub fn invalidate(&mut self, epoch: u64) -> usize {
        let evicted = self.entries.len();
        self.entries.clear();
        self.epoch = epoch;
        evicted
    }

    /// Returns the plan cached under `key` *for exactly this query*,
    /// refreshing its recency.  An entry planned for a differently-numbered
    /// respelling misses, as does a request pinned to a graph generation
    /// other than the cache's (its plan would embed another graph's
    /// estimates).
    pub fn lookup(&mut self, epoch: u64, key: &str, q: &Gtpq) -> Option<Arc<QueryPlan>> {
        if epoch != self.epoch {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        if *entry.query != *q {
            return None;
        }
        entry.last_used = tick;
        Some(Arc::clone(&entry.plan))
    }

    /// Caches a plan for `q` built against graph generation `epoch`,
    /// evicting the least-recently-used entry when full (an existing entry
    /// under the same key is replaced in place).  Plans stamped with a
    /// generation other than the cache's current one are dropped.
    pub fn insert(&mut self, epoch: u64, key: &str, q: Arc<Gtpq>, plan: Arc<QueryPlan>) {
        if self.capacity == 0 || epoch != self.epoch {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(key) {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            key.to_owned(),
            PlanEntry {
                query: q,
                plan,
                last_used: self.tick,
            },
        );
    }
}

fn same_position_set(a: &[usize], b: &[usize]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_unstable();
    sb.sort_unstable();
    sa == sb
}

/// Rewrites cached tuples into the coordinate order of the incoming query.
fn permute_results(
    cached: &ResultSet,
    cached_positions: &[usize],
    canon: &CanonicalQuery,
    q: &Gtpq,
) -> ResultSet {
    let perm: Vec<usize> = canon
        .output_positions
        .iter()
        .map(|p| {
            cached_positions
                .iter()
                .position(|cp| cp == p)
                .expect("position sets were checked equal")
        })
        .collect();
    let rows = cached
        .iter()
        .flat_map(|tuple| perm.iter().map(|&j| tuple[j]))
        .collect();
    ResultSet::from_rows(q.output_nodes().to_vec(), rows)
}

#[cfg(test)]
mod tests {
    use gtpq_core::Planner;
    use gtpq_graph::NodeId;
    use gtpq_query::fixtures::example_graph;
    use gtpq_query::{AttrPredicate, EdgeKind, GtpqBuilder};

    use crate::canon::canonicalize;

    use super::*;

    /// `q`'s plan on the running example's graph.
    fn plan_of(q: &Gtpq) -> Arc<QueryPlan> {
        Arc::new(Planner::new(&example_graph()).plan(q))
    }

    fn two_output_query(swap: bool) -> Gtpq {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let labels = if swap { ["c", "b"] } else { ["b", "c"] };
        for l in labels {
            let n = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label(l));
            b.mark_output(n);
        }
        b.build().unwrap()
    }

    #[test]
    fn exact_resubmission_hits_without_copying() {
        let q = Arc::new(two_output_query(false));
        let canon = canonicalize(&q);
        let mut results = ResultSet::new(q.output_nodes().to_vec());
        results.insert(vec![NodeId(1), NodeId(2)]);
        let results = Arc::new(results);
        let mut cache = ResultCache::new(4);
        cache.insert(0, &canon, Arc::clone(&q), Arc::clone(&results));
        let hit = cache.lookup(0, &canon, &q).expect("hit");
        assert!(Arc::ptr_eq(&hit, &results));
    }

    #[test]
    fn swapped_sibling_spelling_hits_with_permuted_tuples() {
        let q1 = Arc::new(two_output_query(false));
        let q2 = two_output_query(true);
        let c1 = canonicalize(&q1);
        let c2 = canonicalize(&q2);
        assert_eq!(c1.skeleton(), c2.skeleton());
        // q1 tuples: (b-match, c-match).
        let mut results = ResultSet::new(q1.output_nodes().to_vec());
        results.insert(vec![NodeId(10), NodeId(20)]);
        let mut cache = ResultCache::new(4);
        cache.insert(0, &c1, Arc::clone(&q1), Arc::new(results));
        // q2 marks c first, so its tuples must come back as (c, b).
        let hit = cache.lookup(0, &c2, &q2).expect("hit");
        assert_eq!(hit.output, q2.output_nodes());
        assert!(hit.contains(&[NodeId(20), NodeId(10)]));
        assert_eq!(hit.len(), 1);
        // The permuted orientation is now cached: the next lookup returns the
        // very same set without re-permuting.
        let again = cache.lookup(0, &c2, &q2).expect("hit");
        assert!(Arc::ptr_eq(&hit, &again));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn different_output_marks_miss() {
        let base = two_output_query(false);
        let q_single = {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            let n = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
            let _ = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("c"));
            b.mark_output(n);
            b.build().unwrap()
        };
        let mut cache = ResultCache::new(4);
        let cb = canonicalize(&base);
        cache.insert(
            0,
            &cb,
            Arc::new(base.clone()),
            Arc::new(ResultSet::new(base.output_nodes().to_vec())),
        );
        assert!(cache
            .lookup(0, &canonicalize(&q_single), &q_single)
            .is_none());
    }

    #[test]
    fn lru_eviction_keeps_recent_entries() {
        let queries: Vec<Arc<Gtpq>> = ["x", "y", "z"]
            .iter()
            .map(|l| {
                let mut b = GtpqBuilder::new(AttrPredicate::label(l));
                let root = b.root_id();
                b.mark_output(root);
                Arc::new(b.build().unwrap())
            })
            .collect();
        let canons: Vec<_> = queries.iter().map(|q| canonicalize(q)).collect();
        let mut cache = ResultCache::new(2);
        let empty = |q: &Gtpq| Arc::new(ResultSet::new(q.output_nodes().to_vec()));
        cache.insert(0, &canons[0], Arc::clone(&queries[0]), empty(&queries[0]));
        cache.insert(0, &canons[1], Arc::clone(&queries[1]), empty(&queries[1]));
        // Touch entry 0 so entry 1 is the LRU victim.
        assert!(cache.lookup(0, &canons[0], &queries[0]).is_some());
        cache.insert(0, &canons[2], Arc::clone(&queries[2]), empty(&queries[2]));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(0, &canons[0], &queries[0]).is_some());
        assert!(cache.lookup(0, &canons[1], &queries[1]).is_none());
        assert!(cache.lookup(0, &canons[2], &queries[2]).is_some());
    }

    #[test]
    fn duplicate_insert_keeps_one_entry() {
        // Two threads missing on the same query both insert; the second
        // insert must refresh the first entry, not duplicate it.  A swapped
        // spelling has a different key and gets its own orientation entry.
        let q = Arc::new(two_output_query(false));
        let canon = canonicalize(&q);
        let mut results = ResultSet::new(q.output_nodes().to_vec());
        results.insert(vec![NodeId(1), NodeId(2)]);
        let results = Arc::new(results);
        let mut cache = ResultCache::new(4);
        cache.insert(0, &canon, Arc::clone(&q), Arc::clone(&results));
        cache.insert(0, &canon, Arc::clone(&q), Arc::clone(&results));
        assert_eq!(cache.len(), 1, "same key must share one slot");
        let swapped = Arc::new(two_output_query(true));
        cache.insert(
            0,
            &canonicalize(&swapped),
            Arc::clone(&swapped),
            Arc::clone(&results),
        );
        assert_eq!(cache.len(), 2, "other orientation gets its own entry");
        assert!(cache.lookup(0, &canon, &q).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let q = Arc::new(two_output_query(false));
        let canon = canonicalize(&q);
        let mut cache = ResultCache::new(0);
        cache.insert(
            0,
            &canon,
            Arc::clone(&q),
            Arc::new(ResultSet::new(q.output_nodes().to_vec())),
        );
        assert!(cache.is_empty());
        assert!(cache.lookup(0, &canon, &q).is_none());
    }

    #[test]
    fn epoch_invalidation_drops_entries_and_refuses_stale_inserts() {
        let q = Arc::new(two_output_query(false));
        let canon = canonicalize(&q);
        let results = Arc::new(ResultSet::new(q.output_nodes().to_vec()));
        let mut cache = ResultCache::new(4);
        cache.insert(0, &canon, Arc::clone(&q), Arc::clone(&results));
        assert_eq!(cache.invalidate(1), 1);
        assert_eq!(cache.epoch(), 1);
        assert!(cache.lookup(0, &canon, &q).is_none());
        // A late insert from a request that pinned epoch 0 is refused; the
        // current generation's insert is accepted.
        cache.insert(0, &canon, Arc::clone(&q), Arc::clone(&results));
        assert!(cache.is_empty());
        cache.insert(1, &canon, Arc::clone(&q), Arc::clone(&results));
        assert_eq!(cache.len(), 1);
        // A reader still pinned to epoch 0 must not be served the newer
        // generation's answer; a reader pinned to the current epoch hits.
        assert!(cache.lookup(0, &canon, &q).is_none());
        assert!(cache.lookup(1, &canon, &q).is_some());

        let plan = plan_of(&q);
        let mut plans = PlanCache::new(4);
        plans.insert(0, "k", Arc::clone(&q), Arc::clone(&plan));
        assert_eq!(plans.invalidate(2), 1);
        assert!(plans.lookup(2, "k", &q).is_none());
        plans.insert(0, "k", Arc::clone(&q), Arc::clone(&plan));
        assert!(plans.is_empty());
        plans.insert(2, "k", Arc::clone(&q), plan);
        assert_eq!(plans.len(), 1);
    }

    #[test]
    fn position_set_comparison() {
        assert!(same_position_set(&[1, 2], &[2, 1]));
        assert!(!same_position_set(&[1, 2], &[1, 3]));
        assert!(!same_position_set(&[1], &[1, 1]));
    }

    #[test]
    fn plan_cache_is_lru_over_canonical_keys() {
        let q = Arc::new(two_output_query(false));
        let plan = plan_of(&q);
        let mut cache = PlanCache::new(2);
        assert!(cache.is_empty());
        cache.insert(0, "a", Arc::clone(&q), Arc::clone(&plan));
        cache.insert(0, "b", Arc::clone(&q), Arc::clone(&plan));
        assert!(cache.lookup(0, "a", &q).is_some()); // refresh a
        cache.insert(0, "c", Arc::clone(&q), Arc::clone(&plan)); // evicts b
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(0, "b", &q).is_none());
        assert!(cache.lookup(0, "a", &q).is_some());
        assert!(cache.lookup(0, "c", &q).is_some());
        // Zero capacity disables insertion.
        let mut off = PlanCache::new(0);
        off.insert(0, "a", Arc::clone(&q), Arc::clone(&plan));
        assert!(off.lookup(0, "a", &q).is_none());
    }

    #[test]
    fn plan_cache_misses_for_a_different_spelling_of_the_same_key() {
        // Plans bind QueryNodeIds; a structurally different query must never
        // receive a plan cached under the same canonical key.
        let planned_for = Arc::new(two_output_query(false));
        let other = two_output_query(true);
        assert_ne!(*planned_for, other);
        let plan = plan_of(&planned_for);
        let mut cache = PlanCache::new(4);
        cache.insert(0, "shared-key", Arc::clone(&planned_for), plan);
        assert!(cache.lookup(0, "shared-key", &planned_for).is_some());
        assert!(cache.lookup(0, "shared-key", &other).is_none());
        // Re-planning takes over the slot in place.
        let other = Arc::new(other);
        let other_plan = plan_of(&other);
        cache.insert(0, "shared-key", Arc::clone(&other), other_plan);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(0, "shared-key", &other).is_some());
        assert!(cache.lookup(0, "shared-key", &planned_for).is_none());
    }
}
