//! `fleet-rollout`: the `xcbc fleet` + monitoring path. Each op deploys
//! a seeded 8-site registry with `Fleet::deploy`, then renders the
//! merged trace and the `FleetTelemetry` Prometheus rollup.

use crate::redrive;
use crate::trace::{ms, Tracer};
use crate::Workload;
use std::collections::BTreeMap;
use std::sync::Arc;
use xcbc_cluster::{limulus_hpc200, littlefe_modified};
use xcbc_core::deploy::limulus_factory_image;
use xcbc_core::{
    Fleet, FleetReport, FleetSite, FleetTelemetry, SiteOutcome, SitePlan, XnitSetupMethod,
};
use xcbc_fault::{FaultPlan, InjectionPoint};
use xcbc_yum::SolveCache;

/// Sites alternate from-scratch and overlay; this many of each.
const PAIRS: u64 = 4;
/// The timed op deploys on one thread: on a 2-vCPU host, keeping both
/// busy raises the hypervisor steal that lands in every wall-clock
/// figure.
const THREADS: usize = 1;
/// The thread count whose trace and exposition must equal the timed op's.
const CHECK_THREADS: usize = 2;

/// What the seed decides about the registry.
struct Registry {
    seed: u64,
    /// Which from-scratch site runs under the fault plan.
    faulted: u64,
    /// The node the plan's `node.boot` fault hangs for good.
    boot_node: String,
}

/// An op's user-visible output.
#[derive(Debug, PartialEq)]
pub struct Rollout {
    jsonl: String,
    prom: String,
}

pub struct FleetRollout {
    registry: Registry,
    fleet: Option<Fleet>,
}

impl Registry {
    fn plan_text(&self) -> String {
        format!(
            "seed={}; rate dhcp.discover 0.15; node.boot key={}",
            self.seed, self.boot_node
        )
    }

    /// The program-side registry: LittleFe (modified) sites installed
    /// from scratch, alternating with XNIT overlays onto factory-image
    /// Limulus nodes (both setup methods in turn).
    fn sites(&self) -> Vec<FleetSite> {
        let limulus: BTreeMap<_, _> = limulus_hpc200()
            .nodes
            .iter()
            .map(|n| (n.hostname.clone(), limulus_factory_image()))
            .collect();
        let mut sites = Vec::new();
        for k in 0..PAIRS {
            let name = format!("littlefe-{k}");
            sites.push(if k == self.faulted {
                let plan = FaultPlan::parse(&self.plan_text()).expect("fault plan parses");
                FleetSite::from_scratch_with_faults(name, littlefe_modified(), plan)
            } else {
                FleetSite::from_scratch(name, littlefe_modified(), self.seed.wrapping_add(k))
            });
            let method = if k % 2 == 0 {
                XnitSetupMethod::RepoRpm
            } else {
                XnitSetupMethod::ManualRepoFile
            };
            sites.push(FleetSite::overlay(
                format!("limulus-{k}"),
                limulus.clone(),
                method,
            ));
        }
        sites
    }
}

/// The user-visible output of a deployed fleet.
fn rollout(report: &FleetReport) -> Rollout {
    Rollout {
        jsonl: report.merged_jsonl(),
        prom: FleetTelemetry::from_report(report).prometheus(),
    }
}

impl FleetRollout {
    /// Deploy on a fresh solve cache: each op is a whole rollout, so
    /// cache counters and the exposition built from them repeat.
    fn deploy(&mut self, threads: usize) -> FleetReport {
        let fleet = self
            .fleet
            .take()
            .expect("set up before use")
            .with_solve_cache(Arc::new(SolveCache::new()))
            .with_threads(threads);
        let report = fleet.deploy();
        self.fleet = Some(fleet);
        report
    }

    /// Site outcomes must be what the registry and fault plan imply.
    fn check_sites(&self, report: &FleetReport) -> Result<u64, String> {
        let fleet = self.fleet.as_ref().expect("set up before use");
        let mut nodes = 0;
        for (site, outcome) in fleet.sites().iter().zip(&report.sites) {
            let dep = outcome
                .result
                .as_ref()
                .map_err(|e| format!("{}: {e}", site.name))?;
            nodes += dep.node_dbs.len() as u64;
            match &site.plan {
                SitePlan::XnitOverlay { existing, .. } => {
                    if !dep.preexisting_preserved || dep.node_dbs.len() != existing.len() {
                        return Err(format!("{}: overlay lost pre-existing state", site.name));
                    }
                }
                SitePlan::FromScratch { cluster, .. } => {
                    let pm = dep.post_mortem.as_ref().ok_or("missing post-mortem")?;
                    let planned = site.name == format!("littlefe-{}", self.registry.faulted);
                    let quarantined: Vec<&str> =
                        pm.quarantined.iter().map(|(n, _)| n.as_str()).collect();
                    let ok = if planned {
                        quarantined.contains(&self.registry.boot_node.as_str())
                            && pm.faults.iter().all(|f| {
                                matches!(
                                    f.point,
                                    InjectionPoint::DhcpDiscover | InjectionPoint::NodeBoot
                                )
                            })
                    } else {
                        pm.is_clean()
                    };
                    if !ok || dep.node_dbs.len() + quarantined.len() != cluster.nodes.len() {
                        return Err(format!(
                            "{}: outcome does not match its fault plan: quarantined {quarantined:?}, {} faults",
                            site.name,
                            pm.faults.len()
                        ));
                    }
                }
            }
        }
        Ok(nodes)
    }
}

impl Workload for FleetRollout {
    type Output = Rollout;
    const WORK_UNIT: &'static str = "nodes provisioned or overlaid";

    fn new(seed: u64) -> Self {
        let compute_nodes = littlefe_modified().nodes.len() as u64 - 1;
        FleetRollout {
            registry: Registry {
                seed,
                faulted: seed % PAIRS,
                boot_node: format!("compute-0-{}", (seed / PAIRS) % compute_nodes),
            },
            fleet: None,
        }
    }

    fn setup(&mut self) {
        let fleet = self
            .registry
            .sites()
            .into_iter()
            .fold(Fleet::new(), Fleet::add_site);
        self.fleet = Some(fleet.with_threads(THREADS));
    }

    fn ops(&self) -> usize {
        1
    }

    fn round(&self) -> usize {
        1
    }

    fn traced_len(&self) -> usize {
        1
    }

    fn run(&mut self, _: usize) -> Rollout {
        rollout(&self.deploy(THREADS))
    }

    fn reference(&mut self, _: usize) -> Result<(Rollout, u64), String> {
        let report = self.deploy(THREADS);
        let nodes = self.check_sites(&report)?;
        let checked = rollout(&report);
        if rollout(&self.deploy(CHECK_THREADS)) != checked {
            return Err("trace or exposition depends on the thread count".into());
        }
        Ok((checked, nodes))
    }

    fn traced(&mut self, _: usize, t: &mut Tracer) -> Rollout {
        let fleet = self.fleet.as_ref().expect("set up before use");
        let cache = Arc::new(SolveCache::new());
        let mut sites = Vec::new();
        let mut long_pole = 0.0f64;
        for site in fleet.sites() {
            t.count("core.deploy.calls", 1);
            let span = t.spans.len();
            let result = t.span("core.deploy", |t| match &site.plan {
                SitePlan::FromScratch { cluster, faults } => {
                    redrive::from_scratch(cluster, faults, t)
                        .map_err(xcbc_core::FleetError::Install)
                }
                SitePlan::XnitOverlay { existing, method } => {
                    redrive::overlay(existing, *method, &cache, 0, t)
                        .map_err(xcbc_core::FleetError::Solve)
                }
            });
            long_pole = long_pole.max(ms(t.spans[span].duration()));
            sites.push(SiteOutcome {
                name: site.name.clone(),
                result,
            });
        }
        let report = FleetReport {
            sites,
            threads: 1,
            cache: cache.stats(),
        };
        let jsonl = t.span("sim.trace", |_| report.merged_jsonl());
        t.count("sim.trace.events", jsonl.lines().count() as u64);
        let prom = t.span("cluster.telemetry", |_| {
            FleetTelemetry::from_report(&report).prometheus()
        });
        t.add("fleet.long_pole_ms", long_pole);
        Rollout { jsonl, prom }
    }
}
