//! Oracle for the index-backed depsolver.
//!
//! [`Solver`] looks candidates up in each repository's index and keeps
//! a capability map of the packages it has enqueued. The reference
//! below is the scan-based solver it replaced, kept here only as an
//! oracle: a flat `(repo, package)` candidate vector filtered by
//! `apply_priorities` and the host arch, a linear scan of that vector
//! for every lookup, and a linear scan of the whole in-progress
//! solution for every Requires. Over random worlds — several
//! repositories with tied and shadowing priorities, disabled
//! repositories, the priorities plugin and `obsoletes` on and off,
//! multilib, noarch and incompatible arches, request-arch filters,
//! versioned shared Provides, file Requires, Obsoletes, and the same
//! NEVRA (with the same or a different payload) in two repositories —
//! both must return the same install and upgrade sequences, the same
//! error text, and the same `best_provider`/`best_by_name`/
//! `candidate_count` answers.

use proptest::prelude::*;
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use xcbc_rpm::{Arch, DepFlag, Dependency, Package, PackageBuilder, RpmDb};
use xcbc_yum::{Repository, SolveError, SolveKind, SolveRequest, Solver, YumConfig};

// ---------------------------------------------------------------------
// The reference: the scan-based solver.
// ---------------------------------------------------------------------

/// Coverage counters the reference bumps as it runs.
#[derive(Default)]
struct Seen {
    /// A best-candidate pick among two or more equally good candidates.
    ties: Cell<usize>,
    /// A candidate the priorities rule removed.
    shadowed: Cell<usize>,
    /// A package enqueued by the update path's obsoletes pass.
    obsoleting: Cell<usize>,
}

fn bump(c: &Cell<usize>) {
    c.set(c.get() + 1);
}

/// `yum-plugin-priorities` as a filter over the flat candidate list.
fn apply_priorities<'a>(repos: &[&'a Repository]) -> Vec<(&'a Repository, &'a Package)> {
    let mut best: HashMap<&str, u32> = HashMap::new();
    for repo in repos {
        for p in repo.packages() {
            best.entry(p.name())
                .and_modify(|b| *b = (*b).min(repo.priority))
                .or_insert(repo.priority);
        }
    }
    let mut out = Vec::new();
    for repo in repos {
        for p in repo.packages() {
            if repo.priority <= best[p.name()] {
                out.push((*repo, p));
            }
        }
    }
    out
}

struct RefSolver<'a> {
    candidates: Vec<(&'a Repository, &'a Package)>,
    config: &'a YumConfig,
    seen: &'a Seen,
}

struct RefWalk<'a> {
    installs: Vec<&'a Package>,
    upgrades: Vec<&'a Package>,
    chosen: HashSet<&'a str>,
    queue: VecDeque<&'a Package>,
}

impl<'a> RefWalk<'a> {
    fn enqueue(&mut self, p: &'a Package) {
        if self.chosen.insert(p.name()) {
            self.queue.push_back(p);
        }
    }
}

/// A solution as NEVRA strings: `(installs, upgrades)`.
type Nevras = (Vec<String>, Vec<String>);

impl<'a> RefSolver<'a> {
    fn new(repos: &'a [Repository], config: &'a YumConfig, seen: &'a Seen) -> Self {
        let enabled: Vec<&Repository> = repos.iter().filter(|r| r.enabled).collect();
        let all = enabled.iter().map(|r| r.package_count()).sum::<usize>();
        let candidates = if config.plugin_priorities {
            apply_priorities(&enabled)
        } else {
            enabled
                .iter()
                .flat_map(|r| r.packages().iter().map(move |p| (*r, p)))
                .collect()
        };
        if candidates.len() < all {
            bump(&seen.shadowed);
        }
        let candidates = candidates
            .into_iter()
            .filter(|(_, p)| p.arch().installable_on(config.host_arch))
            .collect();
        RefSolver {
            candidates,
            config,
            seen,
        }
    }

    fn better(
        &self,
        (ra, pa): (&'a Repository, &'a Package),
        (rb, pb): (&'a Repository, &'a Package),
    ) -> std::cmp::Ordering {
        let prio = if self.config.plugin_priorities {
            rb.priority.cmp(&ra.priority)
        } else {
            std::cmp::Ordering::Equal
        };
        prio.then_with(|| {
            pa.arch()
                .preference_on(self.config.host_arch)
                .cmp(&pb.arch().preference_on(self.config.host_arch))
        })
        .then_with(|| pa.nevra.evr.cmp(&pb.nevra.evr))
        .then_with(|| pb.name().cmp(pa.name()))
    }

    fn visible(
        &self,
        arch: Option<Arch>,
    ) -> impl Iterator<Item = (&'a Repository, &'a Package)> + '_ {
        self.candidates
            .iter()
            .filter(move |(_, p)| arch.is_none_or(|a| p.arch().installable_on(a)))
            .copied()
    }

    /// `max_by` (last maximum wins), noting whether it broke a tie.
    fn best(
        &self,
        candidates: impl Iterator<Item = (&'a Repository, &'a Package)>,
    ) -> Option<&'a Package> {
        let all: Vec<_> = candidates.collect();
        let top = all.iter().copied().max_by(|a, b| self.better(*a, *b))?;
        let equal = all.iter().filter(|c| self.better(**c, top).is_eq()).count();
        if equal > 1 {
            bump(&self.seen.ties);
        }
        Some(top.1)
    }

    fn best_provider_filtered(&self, req: &Dependency, arch: Option<Arch>) -> Option<&'a Package> {
        self.best(self.visible(arch).filter(|(_, p)| p.satisfies(req)))
    }

    fn best_by_name_filtered(&self, name: &str, arch: Option<Arch>) -> Option<&'a Package> {
        self.best(self.visible(arch).filter(|(_, p)| p.name() == name))
            .or_else(|| self.best_provider_filtered(&Dependency::any(name), arch))
    }

    fn resolve(&self, db: &RpmDb, request: &SolveRequest) -> Result<Nevras, String> {
        let req = request.normalized();
        let mut walk = RefWalk {
            installs: Vec::new(),
            upgrades: Vec::new(),
            chosen: HashSet::new(),
            queue: VecDeque::new(),
        };
        match req.kind() {
            SolveKind::Install => {
                for name in req.targets() {
                    let p = self
                        .best_by_name_filtered(name, req.arch())
                        .ok_or_else(|| nothing_provides(name.to_string(), String::new()))?;
                    if db
                        .newest(p.name())
                        .is_some_and(|ip| ip.package.nevra.evr >= p.nevra.evr)
                    {
                        continue;
                    }
                    walk.enqueue(p);
                }
            }
            SolveKind::Update | SolveKind::UpdateAll => {
                let targets: Vec<String> = match req.kind() {
                    SolveKind::UpdateAll => db.names().iter().map(|s| s.to_string()).collect(),
                    _ => req.targets().to_vec(),
                };
                for name in &targets {
                    let Some(installed) = db.newest(name) else {
                        continue;
                    };
                    if let Some(c) = self.best_by_name_filtered(name, req.arch()) {
                        if c.nevra.evr > installed.package.nevra.evr {
                            walk.enqueue(c);
                        }
                    }
                    if self.config.obsoletes {
                        for (_, p) in self.visible(req.arch()) {
                            if p.obsoletes_package(&installed.package) {
                                bump(&self.seen.obsoleting);
                                walk.enqueue(p);
                            }
                        }
                    }
                }
            }
        }
        while let Some(pkg) = walk.queue.pop_front() {
            for r in &pkg.requires {
                if db.provides(r) {
                    continue;
                }
                let in_solution = walk
                    .installs
                    .iter()
                    .chain(walk.upgrades.iter())
                    .chain(std::iter::once(&pkg))
                    .chain(walk.queue.iter())
                    .any(|p| p.satisfies(r));
                if in_solution {
                    continue;
                }
                let provider = self
                    .best_provider_filtered(r, req.arch())
                    .ok_or_else(|| nothing_provides(r.to_string(), pkg.nevra.to_string()))?;
                walk.enqueue(provider);
            }
            if db.is_installed(pkg.name()) {
                walk.upgrades.push(pkg);
            } else {
                walk.installs.push(pkg);
            }
        }
        Ok((nevras(&walk.installs), nevras(&walk.upgrades)))
    }
}

fn nothing_provides(what: String, needed_by: String) -> String {
    SolveError::NothingProvides { what, needed_by }.to_string()
}

fn nevras(ps: &[impl std::ops::Deref<Target = Package>]) -> Vec<String> {
    ps.iter().map(|p| p.nevra.to_string()).collect()
}

fn solve(solver: &Solver<'_>, db: &RpmDb, req: &SolveRequest) -> Result<Nevras, String> {
    solver
        .resolve(db, req)
        .map(|s| (nevras(&s.installs), nevras(&s.upgrades)))
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Random worlds.
// ---------------------------------------------------------------------

/// SplitMix64: a whole world from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
const CAPS: [&str; 3] = ["mpi", "blas", "libx"];
const FILES: [&str; 3] = ["/usr/bin/x", "/usr/lib/y", "/etc/z"];
const ARCHES: [Arch; 4] = [Arch::X86_64, Arch::I686, Arch::Noarch, Arch::Armv7];
const FLAGS: [&str; 4] = [">=", "<", "=", ">"];

fn version(rng: &mut Rng) -> String {
    (1 + rng.below(3)).to_string()
}

/// Requires/Provides/Obsoletes/files: the payload a same-NEVRA copy
/// may carry differently.
fn payload(rng: &mut Rng, mut b: PackageBuilder) -> PackageBuilder {
    for _ in 0..rng.below(3) {
        let cap = if rng.chance(25) {
            rng.pick(&NAMES)
        } else {
            rng.pick(&CAPS)
        };
        b = match rng.below(3) {
            0 => b.provides_simple(cap),
            1 => b.provides_versioned(cap),
            _ => b.provides(Dependency::versioned(
                cap,
                DepFlag::Eq,
                version(rng).as_str(),
            )),
        };
    }
    for _ in 0..rng.below(3) {
        b = match rng.below(5) {
            0 => b.requires_simple(rng.pick(&NAMES)),
            1 => b.requires_spec(&format!(
                "{} {} {}",
                rng.pick(&NAMES),
                rng.pick(&FLAGS),
                version(rng)
            )),
            2 => b.requires_simple(rng.pick(&CAPS)),
            3 => b.requires_spec(&format!(
                "{} {} {}",
                rng.pick(&CAPS),
                rng.pick(&FLAGS),
                version(rng)
            )),
            _ => b.requires_simple(rng.pick(&FILES)),
        };
    }
    if rng.chance(25) {
        let target = rng.pick(&NAMES);
        b = b.obsoletes(if rng.chance(50) {
            Dependency::parse(target)
        } else {
            Dependency::parse(&format!("{target} < {}", version(rng)))
        });
    }
    for _ in 0..rng.below(3) {
        b = b.file(rng.pick(&FILES));
    }
    b
}

fn package(rng: &mut Rng) -> Package {
    let name = rng.pick(&NAMES);
    let b = PackageBuilder::new(name, &version(rng), &(1 + rng.below(2)).to_string())
        .arch(rng.pick(&ARCHES));
    payload(rng, b).build()
}

struct World {
    repos: Vec<Repository>,
    db: RpmDb,
    config: YumConfig,
    requests: Vec<SolveRequest>,
}

fn arch_filter(rng: &mut Rng) -> Option<Arch> {
    rng.chance(30).then(|| rng.pick(&ARCHES))
}

fn targets(rng: &mut Rng, pool: &[&'static str]) -> Vec<&'static str> {
    (0..1 + rng.below(3)).map(|_| rng.pick(pool)).collect()
}

fn world(seed: u64) -> World {
    let rng = &mut Rng(seed);
    let mut repos: Vec<Repository> = Vec::new();
    for r in 0..2 + rng.below(2) {
        let id = format!("r{r}");
        let mut repo = Repository::new(&id, &id).with_priority(rng.pick(&[1, 50, 50, 99]));
        if rng.chance(15) {
            repo = repo.disabled();
        }
        for _ in 0..1 + rng.below(8) {
            repo.add_package(package(rng));
        }
        // the same NEVRA in a second repository, with the same payload
        // or a different one
        let earlier: Vec<&Package> = repos.iter().flat_map(|r| r.packages()).collect();
        for _ in 0..rng.below(3) {
            if earlier.is_empty() {
                break;
            }
            let orig = earlier[rng.below(earlier.len())];
            repo.add_package(if rng.chance(50) {
                orig.clone()
            } else {
                let b = PackageBuilder::new(orig.name(), &orig.evr().version, &orig.evr().release)
                    .arch(orig.arch());
                payload(rng, b).build()
            });
        }
        repos.push(repo);
    }
    let mut db = RpmDb::new();
    for _ in 0..rng.below(4) {
        db.install(package(rng));
    }
    let config = YumConfig {
        plugin_priorities: rng.chance(70),
        obsoletes: rng.chance(70),
        host_arch: if rng.chance(85) {
            Arch::X86_64
        } else {
            Arch::I686
        },
    };
    let install_pool: Vec<&str> = NAMES.iter().chain(&CAPS).chain(&FILES).copied().collect();
    let mut requests = Vec::new();
    for _ in 0..3 {
        let mut req = SolveRequest::install(targets(rng, &install_pool));
        if let Some(a) = arch_filter(rng) {
            req = req.with_arch(a);
        }
        requests.push(req);
    }
    let mut update = SolveRequest::update(targets(rng, &NAMES));
    if let Some(a) = arch_filter(rng) {
        update = update.with_arch(a);
    }
    requests.push(update);
    let mut all = SolveRequest::update_all();
    if let Some(a) = arch_filter(rng) {
        all = all.with_arch(a);
    }
    requests.push(all);
    World {
        repos,
        db,
        config,
        requests,
    }
}

/// Every comparison the oracle makes on one world; `Err` names the
/// first difference.
fn compare(w: &World, seen: &Seen) -> Result<(), String> {
    let solver = Solver::new(&w.repos, &w.config);
    let oracle = RefSolver::new(&w.repos, &w.config, seen);
    if solver.candidate_count() != oracle.candidates.len() {
        return Err(format!(
            "candidate_count {} vs {}",
            solver.candidate_count(),
            oracle.candidates.len()
        ));
    }
    let nevra = |p: Option<&Package>| p.map(|p| p.nevra.to_string());
    for name in NAMES.iter().chain(&CAPS).chain(&FILES) {
        let (got, want) = (
            nevra(solver.best_by_name(name)),
            nevra(oracle.best_by_name_filtered(name, None)),
        );
        if got != want {
            return Err(format!("best_by_name({name}): {got:?} vs {want:?}"));
        }
    }
    let deps = NAMES
        .iter()
        .chain(&CAPS)
        .flat_map(|n| [n.to_string(), format!("{n} >= 2"), format!("{n} < 2")])
        .chain(FILES.iter().map(|f| f.to_string()));
    for dep in deps {
        let dep = Dependency::parse(&dep);
        let (got, want) = (
            nevra(solver.best_provider(&dep)),
            nevra(oracle.best_provider_filtered(&dep, None)),
        );
        if got != want {
            return Err(format!("best_provider({dep}): {got:?} vs {want:?}"));
        }
    }
    for req in &w.requests {
        let (got, want) = (solve(&solver, &w.db, req), oracle.resolve(&w.db, req));
        if got != want {
            return Err(format!("{req:?}:\n  solver {got:?}\n  oracle {want:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The index-backed solver answers every query exactly as the
    /// scan-based reference does.
    #[test]
    fn indexed_solver_matches_scan_oracle(seed in any::<u64>()) {
        let w = world(seed);
        let seen = Seen::default();
        if let Err(diff) = compare(&w, &seen) {
            prop_assert!(false, "seed {seed}: {diff}");
        }
    }
}

/// The generator reaches the cases the oracle exists for: tie-breaks
/// between equally good candidates, priority shadowing, the obsoletes
/// pass, successful multi-package closures and NothingProvides errors.
#[test]
fn generator_reaches_ties_shadowing_and_obsoletes() {
    let seen = Seen::default();
    let (mut closures, mut errors) = (0, 0);
    for seed in 0..500 {
        let w = world(seed);
        compare(&w, &seen).unwrap_or_else(|diff| panic!("seed {seed}: {diff}"));
        let solver = Solver::new(&w.repos, &w.config);
        for req in &w.requests {
            match solver.resolve(&w.db, req) {
                Ok(s) if s.len() > 1 => closures += 1,
                Ok(_) => {}
                Err(_) => errors += 1,
            }
        }
    }
    let (ties, shadowed, obsoleting) =
        (seen.ties.get(), seen.shadowed.get(), seen.obsoleting.get());
    assert!(ties > 300, "ties reached {ties} times");
    assert!(shadowed > 60, "priority shadowing reached {shadowed} times");
    assert!(obsoleting > 30, "obsoletes pass reached {obsoleting} times");
    assert!(closures > 100, "multi-package closures: {closures}");
    assert!(errors > 100, "NothingProvides errors: {errors}");
}
