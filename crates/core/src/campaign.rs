//! Rolling update campaigns: drain-aware, canaried, checkpoint-resumable
//! fleet updates.
//!
//! A campaign walks a live fleet through a package update in *waves*.
//! Each wave's cohort is **drained** first — the scheduler stops placing
//! work on the cohort, running jobs get a grace window to finish, and
//! leftovers are requeued losslessly — then updated in parallel, probed
//! for **version-skew** solvability against every database state still
//! live in the fleet, and brought back online. Wave 0 is the **canary**:
//! if its health check fails (failed node updates, unsolvable skew, or a
//! raised canary fault), the campaign halts or rolls the canary back
//! instead of marching on.
//!
//! Progress persists in a [`CampaignCheckpoint`]. A `campaign.drain`
//! fault aborts the campaign *between* waves — before any wave work or
//! simulator advancement — so a resumed run replays the remaining waves
//! byte-identically: resumed trace events are the exact suffix the
//! uninterrupted run would have produced.
//!
//! Determinism: every per-node update uses its own [`xcbc_fault::FaultInjector`]
//! (fault decisions depend only on the `(point, key, hit)` triple), and
//! worker results merge in node order — so the campaign trace is
//! byte-identical at any `threads` setting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use xcbc_fault::{CampaignCheckpoint, FaultPlan, InjectionPoint};
use xcbc_rpm::{RpmDb, TransactionError};
use xcbc_sched::{JobRequest, ResourceManager};
use xcbc_sim::TraceEvent;
use xcbc_yum::{solve_across_skew, Fnv64, Repository, SolveCache, SolveRequest, YumConfig};

/// Trace source for every event a campaign emits.
pub const CAMPAIGN_TRACE_SOURCE: &str = "campaign";

/// What the fleet is updating *to*: the repositories, engine config, and
/// the typed solve request every node must satisfy.
#[derive(Debug, Clone)]
pub struct CampaignTarget {
    pub repos: Vec<Repository>,
    pub config: YumConfig,
    pub request: SolveRequest,
}

/// Keep the long-running spine of an open-loop `(arrival_s, request)`
/// stream — e.g. from `xcbc_sched::WorkloadSpec::stream` — as a
/// campaign's background workload: only jobs running at least
/// `min_runtime_s` survive, and each keeps walltime headroom of at
/// least 4× its runtime so a drain requeue never pushes it past the
/// limit mid-campaign.
pub fn background_workload(
    jobs: impl IntoIterator<Item = (f64, JobRequest)>,
    min_runtime_s: f64,
) -> Vec<JobRequest> {
    jobs.into_iter()
        .filter(|(_, req)| req.runtime_s >= min_runtime_s)
        .map(|(_, mut req)| {
            req.walltime_s = req.walltime_s.max(4.0 * req.runtime_s);
            req
        })
        .collect()
}

/// What to do when the canary wave's health check fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CanaryAction {
    /// Stop the campaign; canary nodes keep whatever state they reached
    /// (failed ones stay offline) so an operator can inspect them.
    #[default]
    Halt,
    /// Restore every canary node's pre-update database and bring the
    /// cohort back online on the old package set.
    Rollback,
}

/// Test-only behavioral mutations, used by the soak harness to prove its
/// campaign invariants can actually fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignMutation {
    /// Cancel (lose) jobs evicted by a drain instead of requeueing them.
    DropJobOnDrain,
    /// Skip the post-wave version-skew solve probe.
    SkipSkewSolve,
}

/// Campaign shape and safety knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Canary cohort size (wave 0). Clamped to the fleet size.
    pub canary: usize,
    /// Total wave count including the canary wave.
    pub waves: usize,
    /// Worker threads for per-node updates within a wave.
    pub threads: usize,
    /// Seconds a drained cohort gets to finish running jobs before
    /// leftovers are requeued.
    pub drain_grace_s: f64,
    /// Canary failure policy.
    pub on_canary_failure: CanaryAction,
    /// Attempts per node before a scriptlet-failing update is abandoned.
    pub retry_budget: u32,
    /// Soak-harness mutation hook; `None` in production.
    pub mutation: Option<CampaignMutation>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            canary: 1,
            waves: 3,
            threads: 1,
            drain_grace_s: 120.0,
            on_canary_failure: CanaryAction::Halt,
            retry_budget: 3,
            mutation: None,
        }
    }
}

/// How a finished (not aborted) campaign ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignOutcome {
    /// Every wave ran; nodes that exhausted their retry budget or failed
    /// to solve are reported in the checkpoint, not panicked over.
    Completed,
    /// The canary health check failed and policy was [`CanaryAction::Halt`].
    HaltedAtCanary { reason: String },
    /// The canary health check failed and the cohort was restored to its
    /// pre-update package set.
    RolledBack { reason: String },
}

/// One wave's outcome.
#[derive(Debug, Clone)]
pub struct WaveReport {
    pub index: usize,
    pub canary: bool,
    /// Cohort node names, sorted.
    pub nodes: Vec<String>,
    /// Jobs requeued off the cohort after the grace window.
    pub requeued_jobs: usize,
    pub updated: Vec<String>,
    /// `(node, reason)` for nodes the wave could not update.
    pub failed: Vec<(String, String)>,
    /// Rendered skew-probe summary, when the probe ran.
    pub skew: Option<String>,
    pub start_s: f64,
    pub end_s: f64,
}

/// Full result of a campaign run (or resumed run).
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub waves: Vec<WaveReport>,
    pub outcome: CampaignOutcome,
    /// Final checkpoint — persist it to resume a later campaign, audit
    /// which nodes updated, or read per-node failure reasons.
    pub checkpoint: CampaignCheckpoint,
    /// Campaign-source trace events emitted by *this* run (a resumed run
    /// carries only its own suffix).
    pub trace: Vec<TraceEvent>,
    /// Wave index this run started from (`> 0` after a resume).
    pub resumed_from_wave: usize,
}

impl CampaignReport {
    /// The campaign trace as byte-stable JSONL.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.trace {
            out.push_str(&ev.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Human summary, one wave per line plus the verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in &self.waves {
            out.push_str(&format!(
                "wave {}{}: {} nodes, {} updated, {} failed, {} requeued{}\n",
                w.index,
                if w.canary { " (canary)" } else { "" },
                w.nodes.len(),
                w.updated.len(),
                w.failed.len(),
                w.requeued_jobs,
                match &w.skew {
                    Some(s) => format!(" | {s}"),
                    None => String::new(),
                },
            ));
        }
        match &self.outcome {
            CampaignOutcome::Completed => {
                out.push_str(&format!(
                    "campaign complete: {} updated, {} failed\n",
                    self.checkpoint.updated_nodes().count(),
                    self.checkpoint.failed_count(),
                ));
                for (node, reason) in self.checkpoint.failed() {
                    out.push_str(&format!("  not converged: {node}: {reason}\n"));
                }
            }
            CampaignOutcome::HaltedAtCanary { reason } => {
                out.push_str(&format!("campaign HALTED at canary: {reason}\n"));
            }
            CampaignOutcome::RolledBack { reason } => {
                out.push_str(&format!("canary ROLLED BACK: {reason}\n"));
            }
        }
        out
    }
}

/// Why a campaign run could not produce a [`CampaignReport`].
#[derive(Debug)]
pub enum CampaignError {
    /// A `campaign.drain` fault fired between waves. The checkpoint and
    /// the trace-so-far are handed back so the caller can persist them
    /// and resume; no wave-`wave` work happened and the simulator did
    /// not advance, so a resume replays the remainder exactly.
    Aborted {
        wave: usize,
        checkpoint: CampaignCheckpoint,
        trace: Vec<TraceEvent>,
    },
    /// The resume checkpoint was recorded for a different campaign
    /// (different target, fleet, or wave shape).
    CheckpointMismatch { expected: String, found: String },
    /// No nodes to update.
    EmptyFleet,
    /// Nonsensical shape (zero waves, zero canary...).
    BadConfig(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Aborted { wave, .. } => {
                write!(f, "campaign aborted before wave {wave} (power/drain fault)")
            }
            CampaignError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different campaign (expected digest {expected}, found {found})"
            ),
            CampaignError::EmptyFleet => write!(f, "campaign has no nodes"),
            CampaignError::BadConfig(msg) => write!(f, "bad campaign config: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Split sorted `nodes` into the campaign's wave cohorts: the first
/// `canary` nodes form wave 0, the remainder spreads evenly over the
/// other `waves - 1` waves (earlier waves take the remainder). Trailing
/// empty waves are dropped.
pub fn plan_waves(nodes: &[String], canary: usize, waves: usize) -> Vec<Vec<String>> {
    let canary = canary.clamp(1, nodes.len().max(1)).min(nodes.len());
    let mut plan = vec![nodes[..canary].to_vec()];
    let rest = &nodes[canary..];
    if rest.is_empty() {
        return plan;
    }
    let chunks = waves.saturating_sub(1).max(1);
    let base = rest.len() / chunks;
    let extra = rest.len() % chunks;
    let mut at = 0;
    for i in 0..chunks {
        let take = base + usize::from(i < extra);
        if take == 0 {
            break;
        }
        plan.push(rest[at..at + take].to_vec());
        at += take;
    }
    plan
}

/// Digest binding a checkpoint to one campaign: target request, fleet
/// membership, and wave shape.
pub fn campaign_digest(
    target: &CampaignTarget,
    nodes: &[String],
    config: &CampaignConfig,
) -> String {
    let mut h = Fnv64::new();
    h.write_u64(target.request.digest());
    for n in nodes {
        h.write_str(n);
    }
    h.write_u64(config.canary as u64)
        .write_u64(config.waves as u64);
    format!("{:016x}", h.finish())
}

/// Per-node update outcome computed off-thread, merged in node order.
#[derive(Debug)]
enum NodeUpdate {
    Updated {
        db: RpmDb,
        dur_s: f64,
        tx_ops: usize,
    },
    Failed {
        reason: String,
        dur_s: f64,
    },
}

/// Attempt one node's update with its own fault oracle. Pure function of
/// `(target, db, faults, retry_budget, cache)` — safe to run on any
/// worker thread without affecting the campaign trace.
fn update_node(
    target: &CampaignTarget,
    db: &RpmDb,
    faults: &FaultPlan,
    retry_budget: u32,
    cache: &Arc<SolveCache>,
) -> NodeUpdate {
    let solution = match cache.get_or_solve(&target.repos, &target.config, db, &target.request) {
        Ok(s) => s,
        Err(e) => {
            return NodeUpdate::Failed {
                reason: format!("solve: {e}"),
                dur_s: 30.0,
            }
        }
    };
    if solution.is_empty() {
        // already converged — a no-op "update" still costs a reboot-ish
        // window
        return NodeUpdate::Updated {
            db: db.clone(),
            dur_s: 30.0,
            tx_ops: 0,
        };
    }
    let mut injector = faults.injector();
    let mut new_db = db.clone();
    let ops = solution.len();
    for attempt in 0..retry_budget.max(1) {
        let tx = (*solution).clone().into_transaction();
        match tx.run_injected(&mut new_db, &mut injector) {
            Ok(_) => {
                return NodeUpdate::Updated {
                    db: new_db,
                    dur_s: 30.0 + 5.0 * ops as f64 + 10.0 * attempt as f64,
                    tx_ops: ops,
                }
            }
            Err(TransactionError::ScriptletFailed { .. }) => continue,
            Err(e) => {
                return NodeUpdate::Failed {
                    reason: format!("transaction: {e}"),
                    dur_s: 30.0,
                }
            }
        }
    }
    NodeUpdate::Failed {
        reason: format!(
            "rpm.scriptlet: retry budget exhausted after {} attempts",
            retry_budget.max(1)
        ),
        dur_s: 30.0 + 10.0 * retry_budget.max(1) as f64,
    }
}

/// Run (or resume) a rolling update campaign against a live fleet.
///
/// * `dbs` — per-node package databases, mutated in place as nodes
///   update. Node *i* of `rm`'s simulator is the *i*-th key in sorted
///   order; `rm` must have at least `dbs.len()` nodes.
/// * `rm` — the live scheduler frontend (Torque, SLURM, or SGE façade);
///   its simulator keeps running jobs through the campaign.
/// * `faults` — fault plan; `campaign.drain` aborts between waves,
///   `campaign.canary` fails the canary health check, `rpm.scriptlet`
///   fails node updates (per-node oracles).
/// * `resume_from` — a checkpoint from a previous [`CampaignError::Aborted`];
///   completed waves are skipped and the drain oracle is not re-consulted
///   for the first resumed wave (the fault that aborted us already fired).
#[allow(clippy::too_many_arguments)]
pub fn run_campaign(
    target: &CampaignTarget,
    dbs: &mut BTreeMap<String, RpmDb>,
    rm: &mut dyn ResourceManager,
    faults: &FaultPlan,
    cache: &Arc<SolveCache>,
    config: &CampaignConfig,
    resume_from: Option<&CampaignCheckpoint>,
) -> Result<CampaignReport, CampaignError> {
    if dbs.is_empty() {
        return Err(CampaignError::EmptyFleet);
    }
    if config.waves == 0 {
        return Err(CampaignError::BadConfig("waves must be >= 1".into()));
    }
    let nodes: Vec<String> = dbs.keys().cloned().collect();
    let digest = campaign_digest(target, &nodes, config);
    let mut checkpoint = match resume_from {
        Some(cp) => {
            if cp.digest() != digest {
                return Err(CampaignError::CheckpointMismatch {
                    expected: digest,
                    found: cp.digest().to_string(),
                });
            }
            cp.clone()
        }
        None => CampaignCheckpoint::new(&digest),
    };
    let start_wave = checkpoint.waves_completed();
    let plan = plan_waves(&nodes, config.canary, config.waves);
    let index_of: BTreeMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();

    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut waves_out: Vec<WaveReport> = Vec::new();
    let mut main_injector = faults.injector();
    let mut outcome = CampaignOutcome::Completed;

    for (k, cohort) in plan.iter().enumerate().skip(start_wave) {
        // Between-waves drain/power oracle. Consulted before ANY wave-k
        // work or simulator advancement so the resumed run's trace is the
        // exact suffix of the uninterrupted one. Skipped for the first
        // resumed wave: the fault that aborted us already "happened".
        let resuming_this_wave = resume_from.is_some() && k == start_wave;
        if !resuming_this_wave
            && main_injector
                .should_fault(InjectionPoint::CampaignDrain, &format!("wave-{k}"))
                .is_some()
        {
            return Err(CampaignError::Aborted {
                wave: k,
                checkpoint,
                trace,
            });
        }

        let wave_start = rm.sim().now();
        let canary_wave = k == 0;

        // Drain: stop placements on the cohort, give running jobs the
        // grace window, then requeue leftovers losslessly.
        for node in cohort {
            trace.push(TraceEvent::mark(
                wave_start,
                CAMPAIGN_TRACE_SOURCE,
                format!("drain {node}"),
            ));
            rm.offline_node(index_of[node.as_str()]);
        }
        rm.advance_to(wave_start + config.drain_grace_s);
        let t_drained = rm.sim().now();
        let mut requeued_jobs = 0usize;
        for node in cohort {
            let idx = index_of[node.as_str()];
            if !rm.node_idle(idx) {
                let victims = rm.requeue_node(idx);
                requeued_jobs += victims.len();
                if config.mutation == Some(CampaignMutation::DropJobOnDrain) {
                    for id in victims {
                        rm.sim_mut().cancel(id);
                    }
                }
            }
        }

        // Snapshot for canary rollback before any database changes.
        let snapshots: Option<BTreeMap<String, RpmDb>> =
            if canary_wave && config.on_canary_failure == CanaryAction::Rollback {
                Some(cohort.iter().map(|n| (n.clone(), dbs[n].clone())).collect())
            } else {
                None
            };

        for node in cohort {
            trace.push(TraceEvent::mark(
                t_drained,
                CAMPAIGN_TRACE_SOURCE,
                format!("update {node}"),
            ));
        }

        // Parallel per-node updates: worker pool with order-independent
        // work (per-node injectors) merged back in cohort order.
        let outcomes: Vec<NodeUpdate> = {
            let slots: Vec<Mutex<Option<NodeUpdate>>> =
                cohort.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let workers = config.threads.clamp(1, cohort.len().max(1));
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cohort.len() {
                            break;
                        }
                        let result = update_node(
                            target,
                            &dbs[&cohort[i]],
                            faults,
                            config.retry_budget,
                            cache,
                        );
                        *slots[i].lock().unwrap() = Some(result);
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.into_inner().unwrap().expect("worker filled every slot"))
                .collect()
        };

        let mut wave_dur = 0.0f64;
        let mut updated: Vec<String> = Vec::new();
        let mut failed: Vec<(String, String)> = Vec::new();
        for (node, result) in cohort.iter().zip(outcomes) {
            match result {
                NodeUpdate::Updated { db, dur_s, tx_ops } => {
                    trace.push(
                        TraceEvent::span(
                            t_drained,
                            CAMPAIGN_TRACE_SOURCE,
                            format!("install {node}"),
                            dur_s,
                        )
                        .with_field("ops", tx_ops),
                    );
                    wave_dur = wave_dur.max(dur_s);
                    dbs.insert(node.clone(), db);
                    updated.push(node.clone());
                }
                NodeUpdate::Failed { reason, dur_s } => {
                    trace.push(
                        TraceEvent::span(
                            t_drained,
                            CAMPAIGN_TRACE_SOURCE,
                            format!("install {node}"),
                            dur_s,
                        )
                        .with_field("error", reason.as_str()),
                    );
                    wave_dur = wave_dur.max(dur_s);
                    failed.push((node.clone(), reason));
                }
            }
        }
        rm.advance_to(t_drained + wave_dur);
        let wave_end = rm.sim().now();

        // Version-skew probe: the target must still solve against every
        // distinct database state now live in the fleet.
        let skew = if config.mutation == Some(CampaignMutation::SkipSkewSolve) {
            None
        } else {
            let report =
                solve_across_skew(cache, &target.repos, &target.config, dbs, &target.request);
            trace.push(
                TraceEvent::mark(wave_end, CAMPAIGN_TRACE_SOURCE, "skew probe")
                    .with_field("states", report.group_count())
                    .with_field("nodes", report.node_count())
                    .with_field("unsolvable", report.unsolvable_nodes().len()),
            );
            Some(report)
        };
        let skew_ok = skew.as_ref().map(|r| r.is_solvable()).unwrap_or(true);

        // Canary verdict, before anything is committed to the checkpoint.
        let canary_failure: Option<String> = if canary_wave {
            if let Some(kind) = main_injector.should_fault(InjectionPoint::CampaignCanary, "canary")
            {
                Some(format!("canary fault injected ({})", kind.as_str()))
            } else if !failed.is_empty() {
                Some(format!(
                    "{} of {} canary nodes failed to update ({})",
                    failed.len(),
                    cohort.len(),
                    failed[0].1
                ))
            } else if !skew_ok {
                Some("target no longer solves across the skew window".to_string())
            } else {
                None
            }
        } else {
            None
        };

        let mut wave_report = WaveReport {
            index: k,
            canary: canary_wave,
            nodes: cohort.clone(),
            requeued_jobs,
            updated: updated.clone(),
            failed: failed.clone(),
            skew: skew.as_ref().map(|r| r.render()),
            start_s: wave_start,
            end_s: wave_end,
        };

        if let Some(reason) = canary_failure {
            match config.on_canary_failure {
                CanaryAction::Halt => {
                    // Failed nodes stay offline for inspection; record
                    // them so the report names every unconverged node.
                    for (node, why) in &failed {
                        trace.push(TraceEvent::mark(
                            wave_end,
                            CAMPAIGN_TRACE_SOURCE,
                            format!("fail {node}"),
                        ));
                        checkpoint.record_failed(node, why);
                    }
                    trace.push(TraceEvent::mark(
                        wave_end,
                        CAMPAIGN_TRACE_SOURCE,
                        "canary halt",
                    ));
                    outcome = CampaignOutcome::HaltedAtCanary { reason };
                    waves_out.push(wave_report);
                    break;
                }
                CanaryAction::Rollback => {
                    let snapshots = snapshots.expect("rollback snapshots taken for canary wave");
                    for node in cohort {
                        trace.push(TraceEvent::mark(
                            wave_end,
                            CAMPAIGN_TRACE_SOURCE,
                            format!("rollback {node}"),
                        ));
                        dbs.insert(node.clone(), snapshots[node].clone());
                        trace.push(TraceEvent::mark(
                            wave_end,
                            CAMPAIGN_TRACE_SOURCE,
                            format!("online {node}"),
                        ));
                        rm.online_node(index_of[node.as_str()]);
                    }
                    outcome = CampaignOutcome::RolledBack { reason };
                    wave_report.updated.clear();
                    waves_out.push(wave_report);
                    break;
                }
            }
        }

        // Commit the wave: successes come back online, failures stay
        // offline and are named in the checkpoint with their reason.
        for node in &updated {
            trace.push(TraceEvent::mark(
                wave_end,
                CAMPAIGN_TRACE_SOURCE,
                format!("online {node}"),
            ));
            rm.online_node(index_of[node.as_str()]);
            checkpoint.record_updated(node);
        }
        for (node, why) in &failed {
            trace.push(TraceEvent::mark(
                wave_end,
                CAMPAIGN_TRACE_SOURCE,
                format!("fail {node}"),
            ));
            checkpoint.record_failed(node, why);
        }
        checkpoint.mark_wave_completed(k);
        waves_out.push(wave_report);
    }

    Ok(CampaignReport {
        waves: waves_out,
        outcome,
        checkpoint,
        trace,
        resumed_from_wave: start_wave,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_rpm::PackageBuilder;
    use xcbc_sched::{JobRequest, TorqueServer};

    fn target() -> CampaignTarget {
        let mut repo = Repository::new("xsede", "XSEDE repo");
        repo.add_package(
            PackageBuilder::new("gromacs", "4.6.5", "2.el6")
                .requires_simple("openmpi")
                .build(),
        );
        repo.add_package(PackageBuilder::new("openmpi", "1.6.5", "1.el6").build());
        CampaignTarget {
            repos: vec![repo],
            config: YumConfig::default(),
            request: SolveRequest::install(["gromacs"]),
        }
    }

    fn fleet(n: usize) -> BTreeMap<String, RpmDb> {
        (0..n)
            .map(|i| {
                let mut db = RpmDb::new();
                db.install(PackageBuilder::new("base", "1.0", "1.el6").build());
                (format!("compute-{i:02}"), db)
            })
            .collect()
    }

    fn run_simple(
        faults: &FaultPlan,
        config: &CampaignConfig,
        n: usize,
    ) -> (
        Result<CampaignReport, CampaignError>,
        BTreeMap<String, RpmDb>,
    ) {
        let target = target();
        let mut dbs = fleet(n);
        let mut rm = TorqueServer::with_maui("head", n, 2);
        let cache = Arc::new(SolveCache::new());
        let r = run_campaign(&target, &mut dbs, &mut rm, faults, &cache, config, None);
        (r, dbs)
    }

    #[test]
    fn happy_path_updates_every_node() {
        let (r, dbs) = run_simple(&FaultPlan::new(1), &CampaignConfig::default(), 5);
        let report = r.unwrap();
        assert_eq!(report.outcome, CampaignOutcome::Completed);
        assert_eq!(report.checkpoint.updated_nodes().count(), 5);
        assert_eq!(report.checkpoint.failed_count(), 0);
        assert_eq!(report.waves.len(), 3, "canary + 2 rollout waves");
        assert!(report.waves[0].canary && report.waves[0].nodes.len() == 1);
        for db in dbs.values() {
            assert!(db.is_installed("gromacs") && db.is_installed("openmpi"));
        }
        // skew probe ran after every wave and stayed solvable
        assert!(report.waves.iter().all(|w| w
            .skew
            .as_deref()
            .is_some_and(|s| s.contains("all solvable"))));
    }

    #[test]
    fn generated_stream_supplies_background_workload() {
        let stream = xcbc_sched::WorkloadSpec::campus_research().generate(5, 2, 2, 30);
        let workload = background_workload(stream, 1500.0);
        assert!(!workload.is_empty());
        assert!(workload
            .iter()
            .all(|j| j.runtime_s >= 1500.0 && j.walltime_s >= 4.0 * j.runtime_s));

        let target = target();
        let mut dbs = fleet(3);
        let mut rm = TorqueServer::with_maui("head", 3, 2);
        for req in &workload {
            rm.sim_mut().submit(req.clone());
        }
        rm.advance_to(5.0);
        let cache = Arc::new(SolveCache::new());
        let report = run_campaign(
            &target,
            &mut dbs,
            &mut rm,
            &FaultPlan::new(4),
            &cache,
            &CampaignConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(report.outcome, CampaignOutcome::Completed);
        // the campaign drained around the generated jobs without losing any
        rm.drain();
        assert_eq!(rm.metrics().jobs_finished, workload.len());
    }

    #[test]
    fn drain_waits_then_requeues() {
        let target = target();
        let mut dbs = fleet(2);
        let mut rm = TorqueServer::with_maui("head", 2, 2);
        // long job on node 0 (the canary) outlives the grace window
        rm.sim_mut()
            .submit(JobRequest::new("stubborn", 1, 2, 10_000.0, 9_000.0));
        rm.advance_to(1.0);
        let cache = Arc::new(SolveCache::new());
        let report = run_campaign(
            &target,
            &mut dbs,
            &mut rm,
            &FaultPlan::new(2),
            &cache,
            &CampaignConfig {
                drain_grace_s: 50.0,
                ..CampaignConfig::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(report.waves[0].requeued_jobs, 1);
        // the job was requeued, not lost: it eventually completes
        rm.drain();
        assert_eq!(rm.metrics().jobs_finished, 1);
    }

    #[test]
    fn canary_fault_halts_campaign() {
        let faults = FaultPlan::parse("seed=7; campaign.canary").unwrap();
        let (r, dbs) = run_simple(&faults, &CampaignConfig::default(), 4);
        let report = r.unwrap();
        assert!(matches!(
            report.outcome,
            CampaignOutcome::HaltedAtCanary { .. }
        ));
        assert_eq!(report.waves.len(), 1, "only the canary wave ran");
        // later cohorts untouched
        assert!(!dbs["compute-03"].is_installed("gromacs"));
    }

    #[test]
    fn canary_scriptlet_failure_rolls_back() {
        // every scriptlet attempt faults → canary node exhausts its budget
        let faults = FaultPlan::parse("seed=3; rpm.scriptlet on=always").unwrap();
        let config = CampaignConfig {
            on_canary_failure: CanaryAction::Rollback,
            ..CampaignConfig::default()
        };
        let target = target();
        let mut dbs = fleet(3);
        let before = dbs.clone();
        let mut rm = TorqueServer::with_maui("head", 3, 2);
        let cache = Arc::new(SolveCache::new());
        let report =
            run_campaign(&target, &mut dbs, &mut rm, &faults, &cache, &config, None).unwrap();
        assert!(matches!(report.outcome, CampaignOutcome::RolledBack { .. }));
        // canary restored byte-for-byte; nothing recorded as updated
        assert_eq!(
            xcbc_yum::db_fingerprint(&dbs["compute-00"]),
            xcbc_yum::db_fingerprint(&before["compute-00"])
        );
        assert!(report.checkpoint.updated_nodes().count() == 0);
        // canary node is back in service
        assert!(!rm.sim().is_offline(0));
    }

    #[test]
    fn retry_budget_exhaustion_degrades_to_partial_rollout() {
        // scriptlets fail only for the second node's first 10 attempts —
        // campaign completes with that node reported, not a panic
        let faults = FaultPlan::parse("seed=9; rpm.scriptlet key=openmpi on=first:10").unwrap();
        let config = CampaignConfig {
            canary: 1,
            waves: 2,
            retry_budget: 2,
            ..CampaignConfig::default()
        };
        // canary will also fail (per-node injectors both see first:10) —
        // use Halt? No: prove partial rollout on a non-canary wave via a
        // plan keyed to a package only some nodes need.
        let mut repo = Repository::new("xsede", "XSEDE repo");
        repo.add_package(PackageBuilder::new("tool", "2.0", "1.el6").build());
        let target = CampaignTarget {
            repos: vec![repo],
            config: YumConfig::default(),
            request: SolveRequest::install(["tool"]),
        };
        let mut dbs = fleet(4);
        // canary node already has the tool → empty solution, no scriptlets
        dbs.get_mut("compute-00")
            .unwrap()
            .install(PackageBuilder::new("tool", "2.0", "1.el6").build());
        let faults = {
            let _ = faults;
            FaultPlan::parse("seed=9; rpm.scriptlet key=tool on=always").unwrap()
        };
        let mut rm = TorqueServer::with_maui("head", 4, 2);
        let cache = Arc::new(SolveCache::new());
        let report =
            run_campaign(&target, &mut dbs, &mut rm, &faults, &cache, &config, None).unwrap();
        assert_eq!(report.outcome, CampaignOutcome::Completed);
        assert_eq!(report.checkpoint.updated_nodes().count(), 1, "canary only");
        assert_eq!(report.checkpoint.failed_count(), 3);
        for (_, reason) in report.checkpoint.failed() {
            assert!(reason.contains("retry budget exhausted"), "{reason}");
        }
        // failed nodes remain offline, named, and unconverged
        assert!(rm.sim().is_offline(1));
    }

    #[test]
    fn empty_fleet_and_zero_waves_are_typed_errors() {
        let target = target();
        let mut rm = TorqueServer::with_maui("head", 1, 2);
        let cache = Arc::new(SolveCache::new());
        let err = run_campaign(
            &target,
            &mut BTreeMap::new(),
            &mut rm,
            &FaultPlan::new(0),
            &cache,
            &CampaignConfig::default(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, CampaignError::EmptyFleet));
        let err = run_campaign(
            &target,
            &mut fleet(1),
            &mut rm,
            &FaultPlan::new(0),
            &cache,
            &CampaignConfig {
                waves: 0,
                ..CampaignConfig::default()
            },
            None,
        )
        .unwrap_err();
        assert!(matches!(err, CampaignError::BadConfig(_)));
    }

    #[test]
    fn abort_and_resume_matches_uninterrupted_run() {
        let config = CampaignConfig {
            waves: 3,
            ..CampaignConfig::default()
        };
        let target = target();
        let cache = Arc::new(SolveCache::new());

        // Uninterrupted baseline.
        let mut dbs_a = fleet(5);
        let mut rm_a = TorqueServer::with_maui("head", 5, 2);
        let full = run_campaign(
            &target,
            &mut dbs_a,
            &mut rm_a,
            &FaultPlan::new(11),
            &cache,
            &config,
            None,
        )
        .unwrap();

        // Faulted run: power dies before wave 1.
        let faults = FaultPlan::parse("seed=11; campaign.drain key=wave-1").unwrap();
        let mut dbs_b = fleet(5);
        let mut rm_b = TorqueServer::with_maui("head", 5, 2);
        let err = run_campaign(
            &target, &mut dbs_b, &mut rm_b, &faults, &cache, &config, None,
        )
        .unwrap_err();
        let CampaignError::Aborted {
            wave,
            checkpoint,
            trace,
        } = err
        else {
            panic!("expected abort");
        };
        assert_eq!(wave, 1);

        // Persist + reload the checkpoint, then resume against the same
        // live fleet state.
        let reloaded = CampaignCheckpoint::parse(&checkpoint.to_text()).unwrap();
        let resumed = run_campaign(
            &target,
            &mut dbs_b,
            &mut rm_b,
            &faults,
            &cache,
            &config,
            Some(&reloaded),
        )
        .unwrap();
        assert_eq!(resumed.resumed_from_wave, 1);
        assert_eq!(resumed.outcome, CampaignOutcome::Completed);

        // Same final databases...
        for (node, db) in &dbs_a {
            assert_eq!(
                xcbc_yum::db_fingerprint(db),
                xcbc_yum::db_fingerprint(&dbs_b[node]),
                "{node} diverged"
            );
        }
        // ...and pre-abort trace + resumed trace is byte-identical to the
        // uninterrupted trace.
        let mut stitched = String::new();
        for ev in trace.iter().chain(resumed.trace.iter()) {
            stitched.push_str(&ev.to_jsonl());
            stitched.push('\n');
        }
        assert_eq!(stitched, full.trace_jsonl());
    }

    #[test]
    fn resume_rejects_foreign_checkpoint() {
        let target = target();
        let mut dbs = fleet(2);
        let mut rm = TorqueServer::with_maui("head", 2, 2);
        let cache = Arc::new(SolveCache::new());
        let foreign = CampaignCheckpoint::new("deadbeefdeadbeef");
        let err = run_campaign(
            &target,
            &mut dbs,
            &mut rm,
            &FaultPlan::new(0),
            &cache,
            &CampaignConfig::default(),
            Some(&foreign),
        )
        .unwrap_err();
        assert!(matches!(err, CampaignError::CheckpointMismatch { .. }));
    }

    #[test]
    fn trace_is_identical_at_any_thread_count() {
        let faults = FaultPlan::parse("seed=5; rpm.scriptlet key=openmpi on=nth:1").unwrap();
        let mut traces = Vec::new();
        for threads in [1usize, 2, 7] {
            let config = CampaignConfig {
                threads,
                waves: 3,
                ..CampaignConfig::default()
            };
            let (r, _) = run_simple(&faults, &config, 9);
            traces.push(r.unwrap().trace_jsonl());
        }
        assert_eq!(traces[0], traces[1]);
        assert_eq!(traces[0], traces[2]);
    }

    #[test]
    fn drop_job_mutation_loses_the_job() {
        let target = target();
        let mut dbs = fleet(2);
        let mut rm = TorqueServer::with_maui("head", 2, 2);
        rm.sim_mut()
            .submit(JobRequest::new("victim", 2, 2, 10_000.0, 9_000.0));
        rm.advance_to(1.0);
        let cache = Arc::new(SolveCache::new());
        let config = CampaignConfig {
            drain_grace_s: 10.0,
            mutation: Some(CampaignMutation::DropJobOnDrain),
            ..CampaignConfig::default()
        };
        run_campaign(
            &target,
            &mut dbs,
            &mut rm,
            &FaultPlan::new(4),
            &cache,
            &config,
            None,
        )
        .unwrap();
        rm.drain();
        use xcbc_sched::JobState;
        let states: Vec<_> = rm.sim().jobs().map(|j| j.state).collect();
        assert!(
            states.iter().any(|s| matches!(s, JobState::Cancelled)),
            "mutation lost the job: {states:?}"
        );
        assert!(
            !states
                .iter()
                .any(|s| matches!(s, JobState::Completed { .. })),
            "job must not complete after the drop mutation: {states:?}"
        );
    }

    #[test]
    fn wave_planning_shapes() {
        let nodes: Vec<String> = (0..7).map(|i| format!("n{i}")).collect();
        let plan = plan_waves(&nodes, 1, 3);
        assert_eq!(plan.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 3, 3]);
        let plan = plan_waves(&nodes, 2, 2);
        assert_eq!(plan.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 5]);
        // more waves than nodes: trailing empties dropped
        let two: Vec<String> = (0..2).map(|i| format!("n{i}")).collect();
        let plan = plan_waves(&two, 1, 6);
        assert_eq!(plan.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 1]);
    }
}
