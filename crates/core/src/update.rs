//! The replica-update protocol (§3.4).
//!
//! Each home MDS tracks how far its live filter has drifted from the
//! published snapshot its peers hold, via the XOR (Hamming) distance of the
//! two bit vectors. Once the drift crosses the configured threshold, the
//! home pushes a sparse [`FilterDelta`] — and, unlike HBA's system-wide
//! broadcast, G-HBA addresses **one server per group**: the replica holder,
//! located through the group's IDBFA. A multi-hit in the IDBFA costs only
//! extra dropped messages (the paper's "light false positive penalty").

use core::time::Duration;

use ghba_bloom::Hit;

use crate::cluster::GhbaCluster;
use crate::ids::MdsId;

/// Cost accounting for one replica-update push.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Messages sent (one per IDBFA candidate per group; non-holders drop
    /// theirs).
    pub messages: u64,
    /// Bytes of delta traffic.
    pub bytes: u64,
    /// Simulated latency of the push (recipients are contacted in
    /// parallel).
    pub latency: Duration,
    /// Whether a refresh actually happened (`false` when the live filter
    /// had not changed).
    pub refreshed: bool,
}

impl GhbaCluster {
    /// Cheap drift gate called after every mutation: publishes only when
    /// the mutation count suggests the XOR distance may have crossed the
    /// threshold, and the exact distance confirms it.
    ///
    /// The exact O(m) distance runs at the gated *cadence*, not on every
    /// mutation: after a check comes up under threshold, another `gate`
    /// mutations must accumulate before the next one (the
    /// `drift_exact_checks` counter makes the cadence observable).
    pub(crate) fn maybe_publish(&mut self, origin: MdsId) -> Option<UpdateReport> {
        let threshold = self.config.update_threshold_bits;
        let gate = self.config.publish_gate();
        let exceeded = self.mdss.get_mut(&origin)?.drift_exceeds(gate, threshold)?;
        self.stats.counters.incr("drift_exact_checks");
        if exceeded {
            Some(self.push_update(origin))
        } else {
            None
        }
    }

    /// Unconditionally refreshes `origin`'s replicas across all groups,
    /// returning the cost report. A no-op (with `refreshed: false`) when
    /// the live filter matches the published snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not in the cluster.
    pub fn push_update(&mut self, origin: MdsId) -> UpdateReport {
        self.maybe_drain();
        let mds = self.mdss.get_mut(&origin).expect("origin must exist");
        let delta = match mds.publish() {
            Some(delta) => delta,
            None => return UpdateReport::default(),
        };
        // Refresh the origin's column of the bit-sliced published slab the
        // hash-once L2/L3 probes read, as its own snapshot publish. The
        // sparse delta touches only the bit-rows of flipped bits — cost
        // scales with churn since the last publish, not with the O(m)
        // filter width. No epoch bump: a publish refreshes filter
        // *content* under the same layout, so cached masks stay valid,
        // and in-flight pinned walks keep probing the exact bits they
        // admitted against.
        {
            let routes = std::sync::Arc::clone(&self.routes);
            let mut edit =
                crate::snapshot::RouteEdit::begin(&routes, self.config.epoch_granularity);
            edit.push_op(crate::snapshot::SlabOp::Delta(origin, delta.clone()));
            self.finish_edit(edit);
        }
        let snap = self.routes.pin();
        debug_assert_eq!(
            snap.slab.extract(origin).as_ref(),
            self.mdss.get(&origin).map(|mds| mds.published()),
            "sparse delta application diverged from the published snapshot"
        );
        let own_group = snap.group_of(origin);
        let mut report = UpdateReport {
            refreshed: true,
            ..UpdateReport::default()
        };
        let mut recipient_groups = 0usize;
        for group in snap.groups.values() {
            if Some(group.id()) == own_group {
                continue;
            }
            recipient_groups += 1;
            match group.locate_via_idbfa(origin) {
                Hit::Unique(_) => {
                    report.messages += 1;
                }
                Hit::Multiple(candidates) => {
                    // Send to every candidate; the non-holders drop it.
                    report.messages += candidates.len() as u64;
                    self.stats
                        .counters
                        .add("idbfa_dropped_updates", candidates.len() as u64 - 1);
                }
                Hit::None => {
                    // Counting filters have no false negatives, so this
                    // means the group holds no replica (e.g. mid-
                    // reconfiguration); fall back to a group multicast.
                    report.messages += group.len() as u64;
                    self.stats.counters.incr("idbfa_fallback_multicasts");
                }
            }
            report.bytes += delta.wire_bytes() as u64;
        }
        // All groups are contacted in parallel: one multicast round over
        // the recipient set.
        report.latency = self.config.latency.multicast_rtt(recipient_groups);
        self.stats.update_messages += report.messages;
        self.stats.update_bytes += report.bytes;
        self.stats.update_latency.record(report.latency);
        report
    }

    /// Pushes updates for every server whose live filter drifted at all —
    /// a barrier used by experiments that need fresh replicas (and by
    /// departures).
    pub fn flush_all_updates(&mut self) -> UpdateReport {
        // Write-ahead: drain (and log) pending concurrent writes first so
        // the flush record lands *after* the drain whose effects it
        // publishes; the per-server `push_update` drains below are then
        // clean no-ops.
        self.maybe_drain();
        if let Some(wal) = self.wal.as_mut() {
            wal.append_flush()
                .expect("WAL append failed: cannot publish unlogged flush");
        }
        let ids = self.server_ids();
        let mut total = UpdateReport::default();
        for id in ids {
            let report = self.push_update(id);
            total.messages += report.messages;
            total.bytes += report.bytes;
            total.latency = total.latency.max(report.latency);
            total.refreshed |= report.refreshed;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::GhbaCluster;
    use crate::config::GhbaConfig;

    /// Regression: once `mutations_since_publish` passed the gate but
    /// drift stayed under threshold, the seed recomputed the exact O(m)
    /// XOR distance on **every** subsequent mutation. The exact check must
    /// instead run once per `gate` mutations.
    #[test]
    fn exact_drift_checks_run_at_gated_cadence() {
        let config = GhbaConfig::default()
            .with_filter_capacity(10_000)
            .with_bits_per_file(12.0)
            .with_update_threshold(1_600)
            .with_seed(3);
        let hashes = u64::from(config.filter_hashes());
        let gate = (1_600 / hashes.max(1) / 2).max(1);
        let mut cluster = GhbaCluster::with_servers(config, 1);
        // Enough mutations to pass the gate several times over, few
        // enough that the drift (≈ k bits per create) stays under the
        // threshold, so no publish ever resolves the pressure.
        let mutations = gate * 2 - 10;
        for i in 0..mutations {
            cluster.create_file(&format!("/cadence/f{i}"));
        }
        let checks = cluster.stats().counters.get("drift_exact_checks");
        assert!(checks >= 1, "the gate passed; at least one exact check");
        assert!(
            checks <= mutations / gate + 1,
            "{checks} exact checks for {mutations} mutations (gate {gate}): \
             the O(m) distance is being recomputed per mutation"
        );
        assert_eq!(
            cluster.stats().update_messages,
            0,
            "drift must have stayed under threshold for this test to bite"
        );
    }

    /// The published slab is refreshed by sparse delta application; it
    /// must stay bit-identical to every server's published snapshot.
    #[test]
    fn push_update_keeps_slab_in_sync_via_deltas() {
        let config = GhbaConfig::default()
            .with_filter_capacity(2_000)
            .with_max_group_size(4)
            .with_update_threshold(usize::MAX)
            .with_seed(11);
        let mut cluster = GhbaCluster::with_servers(config, 12);
        for round in 0..3 {
            for i in 0..40 {
                cluster.create_file(&format!("/sync/r{round}/f{i}"));
            }
            if round == 1 {
                for i in 0..10 {
                    cluster.remove_file(&format!("/sync/r0/f{i}"));
                }
            }
            cluster.flush_all_updates();
            cluster
                .check_invariants()
                .expect("published slab mirrors every snapshot");
        }
    }

    /// A publish writes one slab row per flipped bit on each of its two
    /// slabs (the spare and the displaced slab it recycles), so a
    /// single create's publish — at most `k` set bits — writes at most
    /// `2 · k` rows. Rewriting whole changed words would cost
    /// `2 · 64` rows per changed word.
    #[test]
    fn single_create_publish_writes_at_most_two_k_rows() {
        let config = GhbaConfig::default()
            .with_filter_capacity(2_000)
            .with_max_group_size(4)
            .with_update_threshold(usize::MAX)
            .with_seed(5);
        let k = u64::from(crate::mds::published_shape(&config).hashes);
        let mut cluster = GhbaCluster::with_servers(config, 12);
        let home = cluster.create_file("/one/file");
        cluster.reset_stats();
        assert!(cluster.push_update(home).refreshed);
        let stats = cluster.stats();
        assert_eq!(stats.slab_spare_copies, 0, "the displaced slab recycles");
        assert!(
            (1..=2 * k).contains(&stats.slab_rows_written),
            "{} rows for k = {k}",
            stats.slab_rows_written
        );
        assert_eq!(
            stats.slab_rows_written % 2,
            0,
            "both slabs take the same rows"
        );
    }
}
