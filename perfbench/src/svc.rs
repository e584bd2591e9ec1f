//! `svc-tenants`: the `xcbcd` path. Each op serves one fixed window of
//! a seeded 8-tenant request stream through `xcbc_svc::serve`, from a
//! cold cache bank and fresh tenant node databases.

use crate::redrive;
use crate::trace::{ms, Tracer};
use crate::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use xcbc_core::deploy::limulus_factory_image;
use xcbc_core::xnit::{xnit_repository, XnitSetupMethod};
use xcbc_rpm::RpmDb;
use xcbc_svc::{
    body_digest, replay, serve, AdmissionController, Journal, JournalEntry, SvcConfig, SvcOp,
    SvcRequest, SvcWorkload,
};
use xcbc_yum::{Repository, ShardedSolveCache, SolveRequest, YumConfig};

const TENANTS: usize = 8;
const WINDOW: usize = 200;
const WINDOWS: usize = 48;
/// The timed op runs on one worker: on a 2-vCPU host, keeping both busy
/// raises the hypervisor steal that lands in every wall-clock figure.
const WORKERS: usize = 1;
/// The worker count whose journal must equal the timed op's.
const CHECK_WORKERS: usize = 2;

pub struct SvcTenants {
    workload: SvcWorkload,
    windows: Vec<Vec<SvcRequest>>,
    config: SvcConfig,
}

impl Workload for SvcTenants {
    type Output = String;
    const WORK_UNIT: &'static str = "accepted requests";

    fn new(seed: u64) -> Self {
        let workload = SvcWorkload {
            tenants: TENANTS,
            requests: WINDOW * WINDOWS * 5 / 4,
            seed,
            ..SvcWorkload::default()
        };
        // The generator mixes in targets no repository provides; those
        // solves fail by design, so they are left out and every op in a
        // window is one that can succeed.
        let provided: BTreeSet<String> = xnit_repository()
            .packages()
            .iter()
            .map(|p| p.nevra.name.clone())
            .collect();
        let stream: Vec<SvcRequest> = workload
            .generate()
            .into_iter()
            .filter(|r| match &r.op {
                SvcOp::Solve(req) => req.targets().iter().all(|t| provided.contains(t)),
                _ => true,
            })
            .collect();
        let windows: Vec<Vec<SvcRequest>> = stream
            .chunks_exact(WINDOW)
            .take(WINDOWS)
            .map(<[SvcRequest]>::to_vec)
            .collect();
        assert_eq!(
            windows.len(),
            WINDOWS,
            "stream too short for {WINDOWS} windows"
        );
        SvcTenants {
            workload,
            windows,
            config: SvcConfig::default(),
        }
    }

    fn setup(&mut self) {
        self.config = self.workload.config(WORKERS);
    }

    fn ops(&self) -> usize {
        self.windows.len()
    }

    fn round(&self) -> usize {
        self.windows.len()
    }

    fn traced_len(&self) -> usize {
        self.windows.len()
    }

    fn run(&mut self, i: usize) -> String {
        serve(&self.windows[i], &self.config).journal_text
    }

    fn reference(&mut self, i: usize) -> Result<(String, u64), String> {
        let report = serve(&self.windows[i], &self.config);
        let parallel = SvcConfig {
            workers: CHECK_WORKERS,
            ..self.config.clone()
        };
        if serve(&self.windows[i], &parallel).journal_text != report.journal_text {
            return Err(format!("window {i}: journal depends on the worker count"));
        }
        if let Some(bad) = report
            .responses
            .iter()
            .find(|r| r.body.starts_with("solve err") || r.body.starts_with("deploy err"))
        {
            return Err(format!("window {i}: {}", bad.body));
        }
        let replayed = replay(&report.journal_text).map_err(|e| format!("window {i}: {e}"))?;
        if !replayed.is_clean() {
            return Err(format!("window {i}: {}", replayed.render().trim_end()));
        }
        let bodies = report.accepted_bodies();
        for (seq, _, body) in &replayed.responses {
            if bodies.get(seq).map(|r| &r.body) != Some(body) {
                return Err(format!("window {i}: replayed body of seq {seq} differs"));
            }
        }
        Ok((report.journal_text, report.accepted as u64))
    }

    fn traced(&mut self, i: usize, t: &mut Tracer) -> String {
        serve_traced(&self.windows[i], &self.config, CHECK_WORKERS, t)
    }
}

/// A tenant's node databases, as the service creates them.
fn tenant_nodes(tenant: &str) -> BTreeMap<String, RpmDb> {
    [format!("{tenant}-fe"), format!("{tenant}-c0")]
        .into_iter()
        .map(|host| (host, limulus_factory_image()))
        .collect()
}

/// The accepted-request ledger that mon and trace bodies are read from.
#[derive(Default)]
struct Ledger {
    total: u64,
    per_tenant: BTreeMap<String, Vec<u64>>,
}

impl Ledger {
    fn record(&mut self, tenant: &str, seq: u64) {
        self.total += 1;
        self.per_tenant
            .entry(tenant.to_string())
            .or_default()
            .push(seq);
    }

    fn mon_body(&self, tenant: &str) -> String {
        let mine = self.per_tenant.get(tenant).map_or(0, Vec::len);
        format!(
            "mon ok accepted={} tenants={} mine={mine}",
            self.total,
            self.per_tenant.len()
        )
    }

    fn trace_body(&self, tenant: &str) -> String {
        match self.per_tenant.get(tenant) {
            None => "trace ok n=0 seqs=-".to_string(),
            Some(seqs) => {
                let tail: Vec<String> = seqs[seqs.len().saturating_sub(8)..]
                    .iter()
                    .map(u64::to_string)
                    .collect();
                format!("trace ok n={} seqs={}", seqs.len(), tail.join(","))
            }
        }
    }
}

enum Work {
    Op(SvcOp),
    Ready(String),
}

/// `serve` re-driven on one thread: serial admission, then each
/// tenant's queue in sorted-name order, then the journal. Returns the
/// journal text, which must equal the program's byte for byte. Also
/// records how the execute time would split across `split` workers.
fn serve_traced(window: &[SvcRequest], config: &SvcConfig, split: usize, t: &mut Tracer) -> String {
    let shards = config.shards.max(1);
    let (mut journal, work) = t.span("svc.admit", |_| {
        let mut admission = AdmissionController::new(config.quotas.clone(), config.queue_limit);
        let mut ledger = Ledger::default();
        let mut journal = Journal {
            seed: config.seed,
            shards,
            quota_lines: config
                .quotas
                .to_string()
                .lines()
                .map(str::to_string)
                .collect(),
            ..Journal::default()
        };
        let mut work: BTreeMap<String, Vec<(u64, Work)>> = BTreeMap::new();
        for req in window {
            if admission.admit(&req.tenant, req.tick).is_err() {
                continue;
            }
            let seq = journal.entries.len() as u64;
            journal.entries.push(JournalEntry {
                seq,
                tenant: req.tenant.clone(),
                digest: req.op.digest(),
                seed: req.seed,
                op: req.op.clone(),
            });
            let item = match &req.op {
                SvcOp::MonSnapshot => Work::Ready(ledger.mon_body(&req.tenant)),
                SvcOp::TraceFetch => Work::Ready(ledger.trace_body(&req.tenant)),
                op => Work::Op(op.clone()),
            };
            ledger.record(&req.tenant, seq);
            work.entry(req.tenant.clone())
                .or_default()
                .push((seq, item));
        }
        (journal, work)
    });
    t.count("svc.requests", window.len() as u64);
    t.count(
        "svc.rejected",
        (window.len() - journal.entries.len()) as u64,
    );

    let bank = ShardedSolveCache::new(shards);
    let repos = t.span("core.catalog", |_| vec![xnit_repository()]);
    let yum_config = YumConfig::default();
    let mut bodies: BTreeMap<u64, String> = BTreeMap::new();
    let mut tenant_ms = Vec::with_capacity(work.len());
    for (tenant, items) in &work {
        let span = t.spans.len();
        t.span("svc.execute", |t| {
            let salt = ShardedSolveCache::tenant_salt(tenant);
            let mut nodes = tenant_nodes(tenant);
            for (seq, item) in items {
                let body = match item {
                    Work::Ready(body) => body.clone(),
                    Work::Op(SvcOp::Solve(req)) => {
                        solve(&bank, salt, &repos, &yum_config, &nodes, req, t)
                    }
                    Work::Op(_) => deploy(&bank, salt, &mut nodes, t),
                };
                bodies.insert(*seq, body);
            }
        });
        tenant_ms.push(ms(t.spans[span].duration()));
    }
    // the documented split: tenant k (sorted by name) runs on worker k % workers
    let mut per_worker = vec![0.0; split];
    for (k, busy) in tenant_ms.iter().enumerate() {
        per_worker[k % split] += busy;
    }
    t.add(
        "svc.partition.max_ms",
        per_worker.iter().cloned().fold(0.0, f64::max),
    );
    t.add("svc.partition.total_ms", tenant_ms.iter().sum());

    journal.response_digests = bodies
        .iter()
        .map(|(seq, b)| (*seq, body_digest(b)))
        .collect();
    journal.set_cache_totals(&bank.stats());
    let text = t.span("svc.journal", |_| journal.render());
    t.count("svc.journal.bytes", text.len() as u64);
    text
}

fn solve(
    bank: &ShardedSolveCache,
    salt: u64,
    repos: &[Repository],
    config: &YumConfig,
    nodes: &BTreeMap<String, RpmDb>,
    req: &SolveRequest,
    t: &mut Tracer,
) -> String {
    let frontend = nodes.values().next().expect("tenant has a frontend");
    match redrive::solve(
        t,
        || bank.stats(),
        || bank.get_or_solve(salt, repos, config, frontend, req),
    ) {
        Ok(sol) => {
            let mut nevras: Vec<String> = sol
                .installs
                .iter()
                .chain(sol.upgrades.iter())
                .map(|p| p.nevra.to_string())
                .collect();
            let total = nevras.len();
            if total > 12 {
                nevras.truncate(12);
                nevras.push(format!("+{}", total - 12));
            }
            format!(
                "solve ok installs={} upgrades={} [{}]",
                sol.installs.len(),
                sol.upgrades.len(),
                nevras.join(",")
            )
        }
        Err(e) => format!("solve err {e}"),
    }
}

fn deploy(
    bank: &ShardedSolveCache,
    salt: u64,
    nodes: &mut BTreeMap<String, RpmDb>,
    t: &mut Tracer,
) -> String {
    t.count("core.deploy.calls", 1);
    let before: usize = nodes.values().map(RpmDb::len).sum();
    let shard = Arc::clone(bank.home_shard(salt));
    let result = t.span("core.deploy", |t| {
        redrive::overlay(nodes, XnitSetupMethod::RepoRpm, &shard, salt, t)
    });
    match result {
        Ok(report) => {
            *nodes = report.node_dbs;
            let after: usize = nodes.values().map(RpmDb::len).sum();
            format!(
                "deploy ok nodes={} installed={} compat={:.1} preserved={}",
                nodes.len(),
                after - before,
                report.compat.score * 100.0,
                report.preexisting_preserved
            )
        }
        Err(e) => format!("deploy err {e}"),
    }
}
