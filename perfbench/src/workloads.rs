//! The six workloads: what each one serves, from which data, and how its
//! request list is made from the seed.
//!
//! The data sets are fixed (generated from the generators' own default seed)
//! because they stand for the database a user already has; `--seed` drives
//! what a client sends: label groups, the probe label, the update stream and
//! the order of requests.  Every generator here is a pure function of its
//! arguments, so equal seeds give equal request lists.

use gtpq_datagen::{
    fig11_gtpq, xmark_q1, xmark_q2, xmark_q3, ArxivConfig, Fig11Predicate, XmarkConfig,
};
use gtpq_reach::BackendKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Label-group triples per XMark template in `xmark_gtpq`: 14 templates × 5
/// triples = 70 distinct requests, one pass ≈ 1.4 s on the reference box.
const XMARK_TRIPLES: usize = 5;
/// Templates of `xmark_cached`: the 14 without the last (DIS_NEG4).  A hit
/// costs what parsing and analysing the query text costs, which is one
/// value per template, and with an even number of equally frequent values
/// the median sits on the border between two of them and jumps from run to
/// run; with 13 it lies inside the seventh.
const CACHED_TEMPLATES: usize = 13;
/// Distinct requests of `xmark_cached`; below the result cache's 256 slots,
/// so every timed request is a hit.
const CACHED_DISTINCT: usize = CACHED_TEMPLATES * XMARK_TRIPLES;
/// Distinct reads per `xmark_live` cycle: the one that pays the index
/// rebuild plus ten steady ones.  Ten, not nine: with an even number of
/// equally frequent steady classes the median read would sit on the border
/// between two classes and jump between them from run to run.
pub const LIVE_READS: usize = 11;
/// Mutations per `xmark_live` epoch.
pub const LIVE_OPS_PER_EPOCH: usize = 32;
/// Epochs generated up front; the timed phase wraps around if it outlives
/// them (replayed ops reference nodes that still exist, so they stay valid).
pub const LIVE_EPOCHS: usize = 512;
/// arXiv scale tier of the `arxiv_cold` snapshot: 950k nodes, 126 MB.
const COLD_TIER: u32 = 100;

/// Which generated graph a request-loop workload queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Data {
    Xmark,
    Arxiv,
}

/// The three op shapes a workload can have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Closed loop of `submit` over a request list on a frozen graph.
    Requests {
        data: Data,
        /// `with_bypass_cache()`: the engine runs on every request.
        bypass_cache: bool,
        /// Intra-query threads asked for on every request.
        threads: usize,
    },
    /// Cycles of one committed update epoch followed by reads, on a live
    /// graph with the backend pinned to the paper's 3-hop index.
    Live,
    /// Ops of map snapshot → build service → first row → drop.
    Cold,
}

/// One named workload of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// The layer this workload is bound by — why it exists.
    pub why: &'static str,
    pub shape: Shape,
}

/// All workloads, in the order `run` executes and reports them.
///
/// `BENCHMARK.json` lists all but `arxiv_enum_t2`, which therefore carries no
/// bounds: it needs two quiet vCPUs at once, and on the shared 2-vCPU
/// sandbox the second one is contended for tens of minutes at a time — the
/// same commit read 11.5 ms and 16.6 ms median latency in two sets of five
/// runs twenty minutes apart, which no bound of at most 25% survives.  `run`
/// still measures it and `diff` still shows it.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "xmark_gtpq",
        why: "paper's Q1-Q3 and Table 4 logical-operator GTPQs on XMark; pruning-bound, enumeration is negligible",
        shape: Shape::Requests {
            data: Data::Xmark,
            bypass_cache: true,
            threads: 1,
        },
    },
    Spec {
        name: "arxiv_enum",
        why: "year-window citation joins fully materialised on arXiv; enumeration-bound, pruning is negligible",
        shape: Shape::Requests {
            data: Data::Arxiv,
            bypass_cache: true,
            threads: 1,
        },
    },
    Spec {
        name: "arxiv_enum_t2",
        why: "arxiv_enum's requests with two intra-query threads; the morsel and partitioned-merge path",
        shape: Shape::Requests {
            data: Data::Arxiv,
            bypass_cache: true,
            threads: 2,
        },
    },
    Spec {
        name: "xmark_live",
        why: "a 32-op epoch commit then 11 reads per cycle on a live XMark graph; p95 is the post-commit index rebuild",
        shape: Shape::Live,
    },
    Spec {
        name: "arxiv_cold",
        why: "map a 950k-node snapshot, build a service, return the first row, drop; storage-bound, engine is negligible",
        shape: Shape::Cold,
    },
    Spec {
        name: "xmark_cached",
        why: "65 warmed XMark queries served from the result cache; service-overhead-bound, the engine never runs",
        shape: Shape::Requests {
            data: Data::Xmark,
            bypass_cache: false,
            threads: 1,
        },
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// Backend the service is pinned to; `None` is auto-selection.
    pub fn pinned_backend(&self) -> Option<BackendKind> {
        match self.shape {
            Shape::Requests { .. } => None,
            // Auto-selection flips between backends as ingest grows the
            // graph; pinning the paper's index keeps cycles comparable.
            Shape::Live => Some(BackendKind::ThreeHop),
            // Auto-selection profiles and builds an index over 950k nodes
            // on every open; the O(V+E) SSPI is built only if probed.
            Shape::Cold => Some(BackendKind::Sspi),
        }
    }
}

/// XMark graph of the request-loop workloads (25k nodes) or, down-scaled,
/// of the pre-timing answer check.
pub fn xmark_config(small: bool) -> XmarkConfig {
    XmarkConfig::with_scale(if small { 0.1 } else { 1.0 })
}

/// XMark base graph of `xmark_live` (12k nodes; every commit rebuilds the
/// 3-hop index, so the graph is half the size of `xmark_gtpq`'s).
pub fn live_config(small: bool) -> XmarkConfig {
    XmarkConfig::with_scale(if small { 0.1 } else { 0.5 })
}

/// arXiv graph of the `arxiv_enum*` workloads (850 nodes, whose year-window
/// joins already return 10^3-10^4 rows each).
pub fn arxiv_config() -> ArxivConfig {
    ArxivConfig::small()
}

/// arXiv tier of the `arxiv_cold` snapshot or, down-scaled, of its answer
/// check.
pub fn cold_config(small: bool) -> ArxivConfig {
    if small {
        ArxivConfig::small()
    } else {
        ArxivConfig::tier(COLD_TIER)
    }
}

/// Fisher-Yates shuffle, so the heavy request classes spread evenly over a
/// pass instead of arriving in template order.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Query templates of the XMark workloads.
const XMARK_TEMPLATES: usize = 14;

/// The paper's 14 XMark query templates in its order — Fig. 7 Q1-Q3, the
/// Fig. 11 conjunctive query and the ten Table 4 DIS/NEG/DIS_NEG variants —
/// for one (person, item, seller) label-group triple, as query text.
fn xmark_block(p: u32, i: u32, s: u32) -> Vec<String> {
    let mut block = vec![
        xmark_q1(p).to_string(),
        xmark_q2(p, i).to_string(),
        xmark_q3(p, i, s).to_string(),
        fig11_gtpq(Fig11Predicate::Conjunctive, p, i).to_string(),
    ];
    for (_, variant) in Fig11Predicate::table4_suite() {
        block.push(fig11_gtpq(variant, p, i).to_string());
    }
    debug_assert_eq!(block.len(), XMARK_TEMPLATES);
    block
}

/// The first `templates` templates of [`xmark_block`], each instantiated
/// with `triples` seeded (person, item, seller) label-group
/// triples, as query text.  The list is one block of 14 per triple, each in
/// its own seeded order: every block holds every template once, so any
/// number of whole blocks is the same mix of request classes.
fn xmark_texts(seed: u64, triples: usize, templates: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    // One permutation of the ten label groups per role: no group repeats
    // within a role, so all instantiations of a template are distinct.
    let mut groups = [[0u32; 10]; 3];
    for role in &mut groups {
        for (g, slot) in role.iter_mut().enumerate() {
            *slot = g as u32;
        }
        shuffle(role, &mut rng);
    }
    let mut texts = Vec::with_capacity(XMARK_TEMPLATES * triples);
    let [persons, items, sellers] = groups;
    for ((p, i), s) in persons.into_iter().zip(items).zip(sellers).take(triples) {
        let mut block = xmark_block(p, i, s);
        block.truncate(templates);
        shuffle(&mut block, &mut rng);
        texts.append(&mut block);
    }
    texts
}

/// Start years of the arXiv windows: every year of the data (1992-2003) but
/// the last, whose window would hold a single year.  Eleven, an odd number:
/// see [`CACHED_DISTINCT`].
const ARXIV_WINDOWS: std::ops::RangeInclusive<i64> = 1992..=2002;

/// Eleven two-output citation joins, one per start year: papers of a
/// three-year window paired with every paper they transitively cite that is
/// at most five years older.  The grid is exhaustive, so the seed only
/// orders it: any sampled subset would move the median by which windows it
/// happened to draw.
fn arxiv_texts(seed: u64) -> Vec<String> {
    let mut texts: Vec<String> = ARXIV_WINDOWS
        .map(|lo| {
            format!(
                "[year >= {lo}, year <= {}]* {{ //[year >= {}]* }}",
                lo + 2,
                lo - 5
            )
        })
        .collect();
    shuffle(&mut texts, &mut StdRng::seed_from_u64(seed));
    texts
}

impl Spec {
    /// The distinct request texts of one pass (one cycle's reads on
    /// `xmark_live`, the single probe on `arxiv_cold`), made from `seed`.
    /// `small` makes the list for the down-scaled answer check: one label
    /// triple per template, and a probe label the small graph has.
    pub fn request_texts(&self, seed: u64, small: bool) -> Vec<String> {
        match self.shape {
            Shape::Requests {
                data: Data::Xmark,
                bypass_cache,
                ..
            } => {
                let triples = if small { 1 } else { XMARK_TRIPLES };
                let templates = if bypass_cache {
                    XMARK_TEMPLATES
                } else {
                    CACHED_TEMPLATES
                };
                xmark_texts(seed, triples, templates)
            }
            Shape::Requests {
                data: Data::Arxiv, ..
            } => arxiv_texts(seed),
            Shape::Live => {
                // The first eleven templates in the paper's order (Q1-Q3,
                // the conjunctive query, DIS1-3, NEG1-3, DIS_NEG1) for a
                // seeded triple.  Q1 stays first — it is the read that pays
                // the rebuild after every commit — and the ten steady reads
                // follow in seeded order: a fixed class mix, like the other
                // lists.
                let mut rng = StdRng::seed_from_u64(seed);
                let (p, i, s) = (
                    rng.gen_range(0..10u32),
                    rng.gen_range(0..10u32),
                    rng.gen_range(0..10u32),
                );
                let mut texts = xmark_block(p, i, s);
                texts.truncate(LIVE_READS);
                shuffle(&mut texts[1..], &mut rng);
                texts
            }
            Shape::Cold => {
                let labels = cold_config(small).paper_labels;
                let k = StdRng::seed_from_u64(seed).gen_range(0..labels);
                vec![format!("[label = paper{k}]*")]
            }
        }
    }
}

impl Spec {
    /// A *unit* is the stretch of work the timed phase repeats identically:
    /// `unit_len` consecutive requests of the list (a whole mix of request
    /// classes), sent `unit_reps` times back to back so that the unit lasts
    /// 50-300 ms — long enough for its duration to tell which of its two
    /// speeds the sandbox was running at (see `measure`).
    pub fn unit_len(&self) -> usize {
        match self.shape {
            Shape::Requests {
                data: Data::Xmark,
                bypass_cache: true,
                ..
            } => XMARK_TEMPLATES,
            Shape::Requests {
                data: Data::Xmark, ..
            } => CACHED_DISTINCT,
            Shape::Requests {
                data: Data::Arxiv, ..
            } => ARXIV_WINDOWS.count(),
            Shape::Live => LIVE_READS,
            Shape::Cold => 1,
        }
    }

    /// Rounds of set-up + timed slice in a run.  `setup_s` is the fastest
    /// set-up of a run, so cheap set-ups (0.1 s) are repeated more often —
    /// every 1.3 s of a 12-second run — than those that take over a second.
    pub fn rounds(&self) -> usize {
        match self.shape {
            Shape::Requests {
                data: Data::Arxiv, ..
            }
            | Shape::Live => 9,
            _ => 3,
        }
    }

    /// See [`unit_len`](Self::unit_len).
    pub fn unit_reps(&self) -> usize {
        match self.shape {
            // 65 hits take ~4 ms, one cold op ~7 ms.
            Shape::Requests {
                bypass_cache: false,
                ..
            } => 16,
            Shape::Cold => 10,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_tile_the_request_lists() {
        for spec in SPECS {
            let n = spec.request_texts(42, false).len();
            assert_eq!(n % spec.unit_len(), 0, "{}: {n} requests", spec.name);
        }
        // Every unit of xmark_gtpq holds each of the 14 templates once: the
        // templates differ in node count, which survives label renaming.
        let texts = SPECS[0].request_texts(42, false);
        let shape = |t: &String| (t.matches('{').count(), t.matches("//").count(), t.len() / 8);
        let mut first: Vec<_> = texts[..XMARK_TEMPLATES].iter().map(shape).collect();
        first.sort_unstable();
        for unit in texts.chunks(XMARK_TEMPLATES) {
            let mut shapes: Vec<_> = unit.iter().map(shape).collect();
            shapes.sort_unstable();
            assert_eq!(shapes, first);
        }
    }

    #[test]
    fn equal_seeds_give_equal_request_lists_and_other_seeds_differ() {
        for spec in SPECS {
            for small in [false, true] {
                let a = spec.request_texts(42, small);
                assert_eq!(a, spec.request_texts(42, small), "{}", spec.name);
                assert!(!a.is_empty(), "{}", spec.name);
                let mut distinct = a.clone();
                distinct.sort();
                distinct.dedup();
                assert_eq!(distinct.len(), a.len(), "{}: duplicates", spec.name);
            }
            let differs =
                (43..48).any(|s| spec.request_texts(s, false) != spec.request_texts(42, false));
            assert!(
                differs,
                "{}: the seed does not reach the requests",
                spec.name
            );
        }
    }

    #[test]
    fn request_texts_parse_and_are_satisfiable() {
        for spec in SPECS {
            for text in spec.request_texts(7, false) {
                let q = gtpq_query::parse_query(&text)
                    .unwrap_or_else(|e| panic!("{}: {text}: {}", spec.name, e.message));
                assert!(gtpq_analysis::is_satisfiable(&q), "{}: {text}", spec.name);
            }
        }
    }

    #[test]
    fn list_sizes_are_the_frozen_ones() {
        let sizes: Vec<usize> = SPECS
            .iter()
            .map(|s| s.request_texts(42, false).len())
            .collect();
        assert_eq!(sizes, [70, 11, 11, LIVE_READS, 1, CACHED_DISTINCT]);
    }
}
