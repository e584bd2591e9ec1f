//! Traced re-drives of `xcbc_core::deploy`'s two paths, step by step
//! through the public functions of the layers underneath, so each call
//! gets its own span. The steps and their order follow
//! `deploy_xnit_overlay_salted` and `deploy_from_scratch_resilient`;
//! the workloads compare every re-driven result with the program's own
//! output, so a re-drive that drifts from the program fails its op.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use xcbc_cluster::{timeline_from_recorder, ClusterSpec, DegradedCluster};
use xcbc_core::compat::check_compatibility;
use xcbc_core::deploy::{DeploymentPath, DeploymentReport, OVERLAY_TRACE_SOURCE};
use xcbc_core::roll::xsede_roll;
use xcbc_core::xnit::{enable_xnit, XnitSetupMethod};
use xcbc_fault::{FaultPlan, InstallCheckpoint};
use xcbc_rocks::{standard_rolls, ClusterInstall, InstallError, ResilienceConfig};
use xcbc_rpm::RpmDb;
use xcbc_sim::{FlightRecorder, SpanRecorder, FLIGHT_RECORDER_CAPACITY};
use xcbc_yum::{CacheStats, SolveCache, SolveError, SolveRequest, Yum, YumConfig};

/// The XNIT overlay onto `existing`, with depsolves through `cache`
/// under key salt `salt` (0 = the fleet's unsalted sharing).
pub fn overlay(
    existing: &BTreeMap<String, RpmDb>,
    method: XnitSetupMethod,
    cache: &Arc<SolveCache>,
    salt: u64,
    t: &mut Tracer,
) -> Result<DeploymentReport, SolveError> {
    let mut node_dbs = existing.clone();
    let mut rec = SpanRecorder::new(OVERLAY_TRACE_SOURCE);
    rec.record("enable XSEDE yum repository", 300.0);
    let mut preserved = true;
    let mut first = true;
    for (host, db) in node_dbs.iter_mut() {
        let before: Vec<String> = db.names().iter().map(|s| s.to_string()).collect();
        let mut yum = Yum::new(YumConfig::default())
            .with_cache_salt(salt)
            .with_solve_cache(Arc::clone(cache));
        t.span("core.overlay", |_| enable_xnit(&mut yum, db, method))
            .map_err(SolveError::Transaction)?;
        let missing: Vec<String> = t.span("core.compat", |_| {
            check_compatibility(db)
                .missing()
                .iter()
                .map(|s| s.to_string())
                .collect()
        });
        let request = SolveRequest::install(missing.iter().map(String::as_str));
        let solution = solve(t, || cache.stats(), || yum.solve(db, &request))?;
        let installed = if solution.is_empty() {
            0
        } else {
            let report = t.span("rpm.tx", |_| (*solution).clone().into_transaction().run(db));
            let installed = report.map_err(SolveError::Transaction)?.installed.len();
            t.count("rpm.tx.packages", installed as u64);
            installed
        };
        if before.iter().any(|name| !db.is_installed(name)) {
            preserved = false;
        }
        let label = format!("{host}: yum install of {installed} packages");
        let secs = 60.0 + installed as f64 * 2.0;
        if first {
            rec.record(label, secs);
            first = false;
        } else {
            rec.record_parallel(label, secs);
        }
    }
    let compat = t.span("core.compat", |_| {
        check_compatibility(node_dbs.values().next().expect("at least one node"))
    });
    Ok(DeploymentReport {
        path: DeploymentPath::XnitOverlay(method),
        admin_steps: Vec::new(),
        nodes_reinstalled: 0,
        preexisting_preserved: preserved,
        compat,
        timeline: timeline_from_recorder(&rec),
        trace: rec.into_events(),
        node_dbs,
        post_mortem: None,
        degraded: None,
        checkpoint: None,
    })
}

/// One depsolve through a cache, counting its hit or miss from the
/// cache's own counters (the traced run is single-threaded, so the
/// delta belongs to this call alone).
pub fn solve<R>(
    t: &mut Tracer,
    stats: impl Fn() -> CacheStats,
    f: impl FnOnce() -> Result<R, SolveError>,
) -> Result<R, SolveError> {
    let before = stats();
    let out = t.span("yum.solve", |_| f());
    let after = stats();
    t.count("yum.solve.calls", 1);
    t.count("yum.cache.hits", after.hits - before.hits);
    t.count("yum.cache.misses", after.misses - before.misses);
    out
}

/// The resilient Rocks + XSEDE-roll install of `cluster` under `plan`.
pub fn from_scratch(
    cluster: &ClusterSpec,
    plan: &FaultPlan,
    t: &mut Tracer,
) -> Result<DeploymentReport, InstallError> {
    let xsede = xsede_roll();
    let resilient = t.span("rocks.install", |_| {
        let mut rolls = standard_rolls();
        rolls.push(xsede);
        ClusterInstall::new(cluster.clone(), rolls).run_resilient(
            &mut plan.injector(),
            &ResilienceConfig::default(),
            InstallCheckpoint::new(),
        )
    })?;
    t.count(
        "rocks.install.nodes",
        resilient.report.node_dbs.len() as u64,
    );
    t.count(
        "fault.retries",
        u64::from(resilient.post_mortem.retries_spent),
    );
    t.count("fault.quarantined", resilient.quarantined.len() as u64);

    let compat = t.span("core.compat", |_| {
        let compute = resilient
            .report
            .node_dbs
            .iter()
            .find(|(name, _)| name.starts_with("compute-"))
            .map(|(_, db)| db)
            .or_else(|| resilient.report.node_dbs.values().next())
            .expect("install produced at least one node");
        check_compatibility(compute)
    });
    let degraded = (!resilient.quarantined.is_empty()).then(|| {
        DegradedCluster::from_quarantine(
            cluster.clone(),
            resilient.quarantined.iter().map(|(n, k)| (n.as_str(), *k)),
        )
    });
    let mut post_mortem = resilient.post_mortem;
    if !post_mortem.is_clean() {
        let flight = FlightRecorder::from_events(FLIGHT_RECORDER_CAPACITY, &resilient.report.trace);
        post_mortem.record_flight_tail(
            flight.tail().map(|ev| ev.to_jsonl()),
            flight.seen(),
            flight.dropped(),
        );
    }
    Ok(DeploymentReport {
        path: DeploymentPath::FromScratch,
        admin_steps: Vec::new(),
        nodes_reinstalled: resilient.report.node_dbs.len(),
        preexisting_preserved: false,
        compat,
        timeline: resilient.report.timeline,
        trace: resilient.report.trace,
        node_dbs: resilient.report.node_dbs,
        post_mortem: Some(post_mortem),
        degraded,
        checkpoint: Some(resilient.checkpoint),
    })
}
