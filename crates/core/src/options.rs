//! Evaluation options (used by the `experiments` binary's ablation).

/// Tuning knobs of the GTEA engine.
///
/// Defaults correspond to the algorithm exactly as described in the paper;
/// the flags exist so the `experiments` ablation can quantify each design
/// decision ("The evaluation pipeline" in `docs/ARCHITECTURE.md`).
#[derive(Clone, Copy, Debug)]
pub struct GteaOptions {
    /// Run the upward pruning round (Procedure 7).  Disabling it leaves more
    /// candidates in the matching graph, and the matching graph must then
    /// cover the whole prime subtree: the shrinking of §4.3 (see
    /// [`shrink_prime_subtree`](Self::shrink_prime_subtree)) relies on
    /// upward-pruned candidate sets, so it is skipped.
    pub upward_pruning: bool,
    /// Answer set reachability during pruning set-at-a-time — the role the
    /// paper gives contour merging (Procedure 2) — with one sweep of the
    /// graph's condensation per (prune step, AD child), no index involved.
    /// When disabled, the prune rounds call the backend's point probe
    /// `reaches` pairwise per candidate/target, as a traditional
    /// structural-join algorithm would: the one arm that reads the
    /// reachability backend.
    pub use_contours: bool,
    /// Shrink the prime subtree by removing query nodes with a single
    /// remaining candidate (§4.3).  Disabling keeps those nodes.  Has no
    /// effect without [`upward_pruning`](Self::upward_pruning).
    pub shrink_prime_subtree: bool,
}

impl Default for GteaOptions {
    fn default() -> Self {
        Self {
            upward_pruning: true,
            use_contours: true,
            shrink_prime_subtree: true,
        }
    }
}

impl GteaOptions {
    /// The configuration used by the ablation that disables the upward round.
    pub fn without_upward_pruning() -> Self {
        Self {
            upward_pruning: false,
            ..Self::default()
        }
    }

    /// The configuration used by the ablation that replaces set-at-a-time
    /// pruning with pairwise index probes.
    pub fn without_contours() -> Self {
        Self {
            use_contours: false,
            ..Self::default()
        }
    }

    /// The configuration used by the ablation that keeps the full prime subtree.
    pub fn without_shrinking() -> Self {
        Self {
            shrink_prime_subtree: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything() {
        let o = GteaOptions::default();
        assert!(o.upward_pruning && o.use_contours && o.shrink_prime_subtree);
    }

    #[test]
    fn ablation_constructors_flip_one_flag() {
        assert!(!GteaOptions::without_upward_pruning().upward_pruning);
        assert!(!GteaOptions::without_contours().use_contours);
        assert!(!GteaOptions::without_shrinking().shrink_prime_subtree);
    }
}
