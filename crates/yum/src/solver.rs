//! The dependency solver — yum's depsolve loop.
//!
//! Given a set of enabled repositories and an installed-package database,
//! computes the transitive closure of Requires for an install or update
//! request, choosing the *best candidate* for each unsatisfied capability
//! the way yum does: higher-priority repository first (when the
//! priorities plugin is active), then architecture preference, then
//! highest EVR, then lexicographically smallest name for determinism.
//!
//! Requests are described by the typed [`SolveRequest`] builder — one
//! vocabulary shared by the install path, the update path, and the
//! fleet-scale [`crate::SolveCache`]'s key normalization.

use crate::fingerprint::Fnv64;
use crate::groups::PackageGroupDef;
use crate::repo::Repository;
use crate::YumConfig;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use xcbc_rpm::{Arch, Dependency, Package, RpmDb, TransactionError, TransactionSet};

/// Why a resolution failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum SolveError {
    /// No enabled repository carries anything satisfying `what`.
    NothingProvides {
        /// The unsatisfied name or capability.
        what: String,
        /// The package whose Requires chain led here (empty for a direct
        /// user request).
        needed_by: String,
    },
    /// The resolved set failed the transaction check (conflicts, file
    /// conflicts, ...).
    Transaction(TransactionError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NothingProvides { what, needed_by } if needed_by.is_empty() => {
                write!(f, "no package provides {what}")
            }
            SolveError::NothingProvides { what, needed_by } => {
                write!(f, "no package provides {what} (needed by {needed_by})")
            }
            SolveError::Transaction(e) => write!(f, "transaction check failed: {e}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// What a [`SolveRequest`] asks the solver to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveKind {
    /// `yum install <targets>`: pull the targets plus their closure.
    Install,
    /// `yum update <targets>`: update the named installed packages.
    Update,
    /// `yum update` with no names: update everything installed.
    UpdateAll,
}

impl SolveKind {
    fn tag(self) -> u64 {
        match self {
            SolveKind::Install => 1,
            SolveKind::Update => 2,
            SolveKind::UpdateAll => 3,
        }
    }
}

/// A typed depsolve request: what operation, against which targets,
/// under which architecture filter.
///
/// One builder the install and update paths share — and the canonical
/// value the solve cache normalizes into a key
/// ([`SolveRequest::digest`]).
///
/// ```
/// use xcbc_yum::{SolveRequest, SolveKind};
///
/// let req = SolveRequest::install(["gromacs", "R"]).with_target("hdf5");
/// assert_eq!(req.kind(), SolveKind::Install);
/// assert_eq!(req.targets(), ["gromacs", "R", "hdf5"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveRequest {
    kind: SolveKind,
    targets: Vec<String>,
    arch: Option<Arch>,
}

impl SolveRequest {
    /// An install request for the given package names.
    pub fn install<I, S>(targets: I) -> SolveRequest
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SolveRequest {
            kind: SolveKind::Install,
            targets: targets.into_iter().map(Into::into).collect(),
            arch: None,
        }
    }

    /// An update request limited to the given package names.
    pub fn update<I, S>(targets: I) -> SolveRequest
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SolveRequest {
            kind: SolveKind::Update,
            targets: targets.into_iter().map(Into::into).collect(),
            arch: None,
        }
    }

    /// An update-everything request (`yum update` with no arguments).
    pub fn update_all() -> SolveRequest {
        SolveRequest {
            kind: SolveKind::UpdateAll,
            targets: Vec::new(),
            arch: None,
        }
    }

    /// Append one more target (builder style).
    pub fn with_target(mut self, name: impl Into<String>) -> SolveRequest {
        self.targets.push(name.into());
        self
    }

    /// Append a comps-style group's install set (mandatory + default,
    /// plus optional packages when `with_optional` is set) — the typed
    /// equivalent of `yum groupinstall`.
    pub fn with_group(mut self, group: &PackageGroupDef, with_optional: bool) -> SolveRequest {
        self.targets
            .extend(group.install_set().iter().map(|s| s.to_string()));
        if with_optional {
            self.targets.extend(group.optional.iter().cloned());
        }
        self
    }

    /// Restrict candidates to packages installable on `arch` (defaults
    /// to the engine's configured host architecture).
    pub fn with_arch(mut self, arch: Arch) -> SolveRequest {
        self.arch = Some(arch);
        self
    }

    /// The requested operation.
    pub fn kind(&self) -> SolveKind {
        self.kind
    }

    /// The requested target names, in request order.
    pub fn targets(&self) -> &[String] {
        &self.targets
    }

    /// The architecture filter, if any.
    pub fn arch(&self) -> Option<Arch> {
        self.arch
    }

    /// The canonical form the solve cache keys on: duplicate targets
    /// collapse to their first occurrence (the solver's `chosen` set
    /// makes repeats no-ops, so the solution is unchanged), and an
    /// `UpdateAll` drops targets entirely.
    pub fn normalized(&self) -> SolveRequest {
        let mut seen = HashSet::new();
        let targets = if self.kind == SolveKind::UpdateAll {
            Vec::new()
        } else {
            self.targets
                .iter()
                .filter(|t| seen.insert(t.as_str()))
                .cloned()
                .collect()
        };
        SolveRequest {
            kind: self.kind,
            targets,
            arch: self.arch,
        }
    }

    /// Stable 64-bit digest of the normalized request — the request
    /// component of a [`crate::SolveCache`] key.
    pub fn digest(&self) -> u64 {
        let norm = self.normalized();
        let mut h = Fnv64::new();
        h.write_u64(norm.kind.tag());
        match norm.arch {
            Some(a) => h.write_str(a.as_str()),
            None => h.write_u64(0),
        };
        for t in &norm.targets {
            h.write_str(t);
        }
        h.finish()
    }
}

/// A resolved set of operations, ready to become a transaction.
///
/// Packages are held behind [`Arc`] so a cached solution can be shared
/// across fleet sites (and across threads) without deep-cloning the
/// Requires/Provides payloads; the copies happen only when a site
/// commits the solution into a transaction.
#[derive(Debug, Clone, Default)]
pub struct Solution {
    /// Packages to newly install, in closure-discovery order.
    pub installs: Vec<Arc<Package>>,
    /// Packages upgrading an installed instance.
    pub upgrades: Vec<Arc<Package>>,
}

impl Solution {
    /// Is there nothing to do?
    pub fn is_empty(&self) -> bool {
        self.installs.is_empty() && self.upgrades.is_empty()
    }

    /// Total number of operations.
    pub fn len(&self) -> usize {
        self.installs.len() + self.upgrades.len()
    }

    /// Convert into a checked-later [`TransactionSet`]. Shared packages
    /// are cloned out of their `Arc`s here — the single point where a
    /// cache-shared solution pays for ownership.
    pub fn into_transaction(self) -> TransactionSet {
        let unwrap = |p: Arc<Package>| Arc::try_unwrap(p).unwrap_or_else(|a| (*a).clone());
        let mut tx = TransactionSet::new();
        for p in self.upgrades {
            tx.add_upgrade(unwrap(p));
        }
        for p in self.installs {
            tx.add_install(unwrap(p));
        }
        tx
    }
}

/// In-progress closure state shared by the install and update walks.
struct Walk<'a> {
    installs: Vec<&'a Package>,
    upgrades: Vec<&'a Package>,
    chosen: HashSet<&'a str>, // names already in solution
    queue: VecDeque<&'a Package>,
    /// Name and Provides names → every package enqueued so far (the
    /// installs, the upgrades, the one being drained and the queue).
    provided: HashMap<&'a str, Vec<&'a Package>>,
}

impl<'a> Walk<'a> {
    fn new() -> Self {
        Walk {
            installs: Vec::new(),
            upgrades: Vec::new(),
            chosen: HashSet::new(),
            queue: VecDeque::new(),
            provided: HashMap::new(),
        }
    }

    fn enqueue(&mut self, p: &'a Package) {
        if self.chosen.insert(p.name()) {
            self.queue.push_back(p);
            let names = std::iter::once(p.name()).chain(p.provides.iter().map(|d| d.name.as_str()));
            for name in names {
                self.provided.entry(name).or_default().push(p);
            }
        }
    }

    /// Does a package already enqueued satisfy `req`? `current` is the
    /// package being drained (popped off the queue, not yet recorded).
    fn in_solution(&self, req: &Dependency, current: &'a Package) -> bool {
        if req.is_file_dep() {
            // file Requires are rare; a scan beats indexing every path
            return self
                .installs
                .iter()
                .chain(&self.upgrades)
                .chain(std::iter::once(&current))
                .chain(&self.queue)
                .any(|p| p.satisfies(req));
        }
        self.provided
            .get(req.name.as_str())
            .is_some_and(|ps| ps.iter().any(|p| p.satisfies(req)))
    }

    fn into_solution(self) -> Solution {
        debug_assert!(self.queue.is_empty());
        let share = |ps: Vec<&Package>| ps.into_iter().map(|p| Arc::new(p.clone())).collect();
        Solution {
            installs: share(self.installs),
            upgrades: share(self.upgrades),
        }
    }
}

/// A solver view over a repository set.
///
/// Candidates are looked up in each repository's index (built once per
/// repository load, see [`Repository`]) rather than collected per
/// solver: a lookup visits the enabled repositories in order and each
/// one's hits in package order — the order a flat `(repo, package)`
/// candidate list would have — and keeps those the host arch, the
/// request arch and the priorities rule admit.
pub struct Solver<'a> {
    /// Enabled repositories, in configuration order.
    repos: Vec<&'a Repository>,
    config: &'a YumConfig,
}

impl<'a> Solver<'a> {
    pub fn new(repos: &'a [Repository], config: &'a YumConfig) -> Self {
        let repos = repos.iter().filter(|r| r.enabled).collect();
        Solver { repos, config }
    }

    /// Number of visible candidates after priority/arch filtering.
    pub fn candidate_count(&self) -> usize {
        self.visible(None, |r| r.packages().iter()).count()
    }

    /// Is `p`, carried by `repo`, a candidate under `arch`? It must be
    /// installable on the host and on `arch`, and — with the priorities
    /// plugin — no enabled repository with a better (lower) priority may
    /// carry a package of the same name.
    fn admits(&self, repo: &Repository, p: &Package, arch: Option<Arch>) -> bool {
        p.arch().installable_on(self.config.host_arch)
            && arch.is_none_or(|a| p.arch().installable_on(a))
            && (!self.config.plugin_priorities
                || self
                    .repos
                    .iter()
                    .filter(|other| other.priority < repo.priority)
                    .all(|other| other.with_name(p.name()).next().is_none()))
    }

    /// The candidates `lookup` finds, repository by repository, that
    /// [`admits`](Self::admits) keeps.
    fn visible<'s, I>(
        &'s self,
        arch: Option<Arch>,
        lookup: impl Fn(&'a Repository) -> I + 's,
    ) -> impl Iterator<Item = (&'a Repository, &'a Package)> + 's
    where
        I: Iterator<Item = &'a Package> + 's,
    {
        self.repos
            .iter()
            .flat_map(move |&r| lookup(r).map(move |p| (r, p)))
            .filter(move |&(r, p)| self.admits(r, p, arch))
    }

    /// Candidate ordering: priority (lower number wins, only when the
    /// plugin is active) → arch preference → EVR → name.
    fn better(
        &self,
        (ra, pa): (&'a Repository, &'a Package),
        (rb, pb): (&'a Repository, &'a Package),
    ) -> std::cmp::Ordering {
        let prio = if self.config.plugin_priorities {
            rb.priority.cmp(&ra.priority) // lower priority value = better
        } else {
            std::cmp::Ordering::Equal
        };
        prio.then_with(|| {
            pa.arch()
                .preference_on(self.config.host_arch)
                .cmp(&pb.arch().preference_on(self.config.host_arch))
        })
        .then_with(|| pa.nevra.evr.cmp(&pb.nevra.evr))
        .then_with(|| pb.name().cmp(pa.name())) // smaller name wins
    }

    /// The best of `candidates`; on a tie the last one visited wins.
    fn best(
        &self,
        candidates: impl Iterator<Item = (&'a Repository, &'a Package)>,
    ) -> Option<&'a Package> {
        candidates
            .max_by(|a, b| self.better(*a, *b))
            .map(|(_, p)| p)
    }

    fn best_provider_filtered(&self, req: &Dependency, arch: Option<Arch>) -> Option<&'a Package> {
        self.best(
            self.visible(arch, |r| r.with_capability(&req.name))
                .filter(|(_, p)| p.satisfies(req)),
        )
    }

    fn best_by_name_filtered(&self, name: &str, arch: Option<Arch>) -> Option<&'a Package> {
        self.best(self.visible(arch, |r| r.with_name(name)))
            .or_else(|| self.best_provider_filtered(&Dependency::any(name), arch))
    }

    /// Best visible candidate satisfying `req`.
    pub fn best_provider(&self, req: &Dependency) -> Option<&'a Package> {
        self.best_provider_filtered(req, None)
    }

    /// Best visible candidate *by package name* (for direct requests and
    /// update targets). A name request matches real names first; if no
    /// package has that name, yum falls back to `whatprovides`.
    pub fn best_by_name(&self, name: &str) -> Option<&'a Package> {
        self.best_by_name_filtered(name, None)
    }

    /// Resolve a typed [`SolveRequest`] against `db`.
    ///
    /// The worklist and in-progress solution hold `&Package` borrows of
    /// the repository candidates — packages (whose Requires/Provides
    /// vectors make cloning expensive) are copied exactly once, into the
    /// returned [`Solution`]'s `Arc`s.
    pub fn resolve(&self, db: &RpmDb, request: &SolveRequest) -> Result<Solution, SolveError> {
        xcbc_sim::self_profiler().time(xcbc_sim::SECTION_DEPSOLVE, || {
            let req = request.normalized();
            let mut walk = Walk::new();
            match req.kind {
                SolveKind::Install => self.seed_install(db, &req, &mut walk)?,
                SolveKind::Update | SolveKind::UpdateAll => self.seed_update(db, &req, &mut walk),
            }
            self.drain(db, &mut walk, req.arch)?;
            Ok(walk.into_solution())
        })
    }

    /// Seed the walk for `yum install <names...>`.
    fn seed_install(
        &self,
        db: &RpmDb,
        req: &SolveRequest,
        walk: &mut Walk<'a>,
    ) -> Result<(), SolveError> {
        for name in req.targets() {
            let p = self
                .best_by_name_filtered(name, req.arch())
                .ok_or_else(|| SolveError::NothingProvides {
                    what: name.to_string(),
                    needed_by: String::new(),
                })?;
            if db
                .newest(p.name())
                .map(|ip| ip.package.nevra.evr >= p.nevra.evr)
                .unwrap_or(false)
            {
                // already installed at same-or-newer: yum prints
                // "Nothing to do" for this name
                continue;
            }
            walk.enqueue(p);
        }
        Ok(())
    }

    /// Seed the walk for `yum update [names...]`: the newest visible
    /// candidate for every installed (or listed) name that has one,
    /// plus obsoletes processing when `obsoletes=1`.
    fn seed_update(&self, db: &RpmDb, req: &SolveRequest, walk: &mut Walk<'a>) {
        let targets: Vec<&str> = match req.kind() {
            SolveKind::UpdateAll => db.names(),
            _ => req.targets().iter().map(String::as_str).collect(),
        };
        for name in targets {
            let installed = match db.newest(name) {
                Some(ip) => ip,
                None => continue, // yum update of a not-installed name is a no-op
            };
            if let Some(candidate) = self.best_by_name_filtered(name, req.arch()) {
                if candidate.nevra.evr > installed.package.nevra.evr {
                    walk.enqueue(candidate);
                }
            }
            // obsoletes processing: a visible package obsoleting this
            // installed one replaces it (yum's `obsoletes=1`)
            if self.config.obsoletes {
                for (_, p) in self.visible(req.arch(), |r| r.obsoleting(name)) {
                    if p.obsoletes_package(&installed.package) {
                        walk.enqueue(p);
                    }
                }
            }
        }
    }

    /// The shared closure loop: pop work, satisfy each Requires from the
    /// db, the in-progress solution, or the best visible provider.
    fn drain(&self, db: &RpmDb, walk: &mut Walk<'a>, arch: Option<Arch>) -> Result<(), SolveError> {
        while let Some(pkg) = walk.queue.pop_front() {
            for req in &pkg.requires {
                if db.provides(req) || walk.in_solution(req, pkg) {
                    continue;
                }
                let provider = self.best_provider_filtered(req, arch).ok_or_else(|| {
                    SolveError::NothingProvides {
                        what: req.to_string(),
                        needed_by: pkg.nevra.to_string(),
                    }
                })?;
                walk.enqueue(provider);
            }
            // upgrade when an older instance is installed, install otherwise
            if db.is_installed(pkg.name()) {
                walk.upgrades.push(pkg);
            } else {
                walk.installs.push(pkg);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_rpm::{Arch, PackageBuilder};

    fn config() -> YumConfig {
        YumConfig::default()
    }

    fn one_repo(pkgs: Vec<Package>) -> Vec<Repository> {
        let mut r = Repository::new("test", "test repo");
        r.add_packages(pkgs);
        vec![r]
    }

    #[test]
    fn closure_resolves_chain() {
        let repos = one_repo(vec![
            PackageBuilder::new("trinity", "r2013", "1")
                .requires_simple("bowtie")
                .build(),
            PackageBuilder::new("bowtie", "1.0.0", "1")
                .requires_simple("samtools")
                .build(),
            PackageBuilder::new("samtools", "0.1.19", "1").build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let db = RpmDb::new();
        let sol = solver
            .resolve(&db, &SolveRequest::install(["trinity"]))
            .unwrap();
        assert_eq!(sol.installs.len(), 3);
    }

    #[test]
    fn satisfied_by_db_not_repulled() {
        let repos = one_repo(vec![
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("openmpi")
                .build(),
            PackageBuilder::new("openmpi", "1.6.5", "1").build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("openmpi", "1.6.5", "1").build());
        let sol = solver
            .resolve(&db, &SolveRequest::install(["gromacs"]))
            .unwrap();
        assert_eq!(sol.installs.len(), 1);
        assert_eq!(sol.installs[0].name(), "gromacs");
    }

    #[test]
    fn missing_dep_reports_chain() {
        let repos = one_repo(vec![PackageBuilder::new("meep", "1.2.1", "1")
            .requires_simple("libctl")
            .build()]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let db = RpmDb::new();
        let err = solver
            .resolve(&db, &SolveRequest::install(["meep"]))
            .unwrap_err();
        match err {
            SolveError::NothingProvides { what, needed_by } => {
                assert_eq!(what, "libctl");
                assert!(needed_by.contains("meep"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn best_candidate_highest_evr() {
        let repos = one_repo(vec![
            PackageBuilder::new("R", "3.0.2", "1").build(),
            PackageBuilder::new("R", "3.1.0", "1").build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        assert_eq!(solver.best_by_name("R").unwrap().evr().version, "3.1.0");
    }

    #[test]
    fn priority_beats_evr_when_plugin_active() {
        let mut base = Repository::new("base", "CentOS base").with_priority(1);
        base.add_package(PackageBuilder::new("python", "2.6.6", "52").build());
        let mut xsede = Repository::new("xsede", "XSEDE").with_priority(50);
        xsede.add_package(PackageBuilder::new("python", "2.7.5", "1").build());
        let repos = vec![base, xsede];
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        // priorities plugin: base (priority 1) shadows xsede's python
        assert_eq!(
            solver.best_by_name("python").unwrap().evr().version,
            "2.6.6"
        );

        let cfg_noplugin = YumConfig {
            plugin_priorities: false,
            ..config()
        };
        let solver2 = Solver::new(&repos, &cfg_noplugin);
        assert_eq!(
            solver2.best_by_name("python").unwrap().evr().version,
            "2.7.5"
        );
    }

    #[test]
    fn disabled_repo_invisible() {
        let mut r = Repository::new("x", "x").disabled();
        r.add_package(PackageBuilder::new("gcc", "4.4.7", "17").build());
        let repos = vec![r];
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        assert!(solver.best_by_name("gcc").is_none());
        assert_eq!(solver.candidate_count(), 0);
    }

    #[test]
    fn incompatible_arch_filtered() {
        let repos = one_repo(vec![
            PackageBuilder::new("tool", "1.0", "1")
                .arch(Arch::Armv7)
                .build(),
            PackageBuilder::new("tool", "0.9", "1")
                .arch(Arch::X86_64)
                .build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        // only the x86_64 build is installable on the x86_64 host
        assert_eq!(solver.best_by_name("tool").unwrap().evr().version, "0.9");
    }

    #[test]
    fn native_arch_preferred_over_multilib() {
        let repos = one_repo(vec![
            PackageBuilder::new("libfoo", "1.0", "1")
                .arch(Arch::I686)
                .build(),
            PackageBuilder::new("libfoo", "1.0", "1")
                .arch(Arch::X86_64)
                .build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        assert_eq!(solver.best_by_name("libfoo").unwrap().arch(), Arch::X86_64);
    }

    #[test]
    fn capability_provider_chosen_for_requires() {
        let repos = one_repo(vec![
            PackageBuilder::new("app", "1.0", "1")
                .requires_spec("mpi >= 1.6")
                .build(),
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
            PackageBuilder::new("mpich2", "1.4.1", "1")
                .provides_versioned("mpi")
                .build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let db = RpmDb::new();
        let sol = solver
            .resolve(&db, &SolveRequest::install(["app"]))
            .unwrap();
        let names: Vec<_> = sol.installs.iter().map(|p| p.name()).collect();
        assert!(
            names.contains(&"openmpi"),
            "only openmpi satisfies mpi >= 1.6: {names:?}"
        );
        assert!(!names.contains(&"mpich2"));
    }

    #[test]
    fn update_resolution_pulls_new_deps() {
        let repos = one_repo(vec![
            PackageBuilder::new("R", "3.1.0", "1")
                .requires_simple("libRmath")
                .build(),
            PackageBuilder::new("libRmath", "3.1.0", "1").build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("R", "3.0.2", "1").build());
        let sol = solver.resolve(&db, &SolveRequest::update_all()).unwrap();
        assert_eq!(sol.upgrades.len(), 1);
        assert_eq!(sol.installs.len(), 1);
        assert_eq!(sol.installs[0].name(), "libRmath");
    }

    #[test]
    fn update_processes_obsoletes() {
        let repos = one_repo(vec![PackageBuilder::new("torque", "4.2.10", "1")
            .obsoletes(Dependency::parse("pbs < 3.0"))
            .build()]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("pbs", "2.3.16", "1").build());
        let sol = solver.resolve(&db, &SolveRequest::update_all()).unwrap();
        assert_eq!(sol.installs.len(), 1);
        assert_eq!(sol.installs[0].name(), "torque");

        let cfg_no = YumConfig {
            obsoletes: false,
            ..config()
        };
        let solver2 = Solver::new(&repos, &cfg_no);
        let sol2 = solver2.resolve(&db, &SolveRequest::update_all()).unwrap();
        assert!(sol2.is_empty());
    }

    #[test]
    fn already_installed_request_is_noop() {
        let repos = one_repo(vec![PackageBuilder::new("gcc", "4.4.7", "17").build()]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("gcc", "4.4.7", "17").build());
        let sol = solver
            .resolve(&db, &SolveRequest::install(["gcc"]))
            .unwrap();
        assert!(sol.is_empty());
    }

    #[test]
    fn diamond_dependency_resolved_once() {
        let repos = one_repo(vec![
            PackageBuilder::new("top", "1", "1")
                .requires_simple("left")
                .requires_simple("right")
                .build(),
            PackageBuilder::new("left", "1", "1")
                .requires_simple("base")
                .build(),
            PackageBuilder::new("right", "1", "1")
                .requires_simple("base")
                .build(),
            PackageBuilder::new("base", "1", "1").build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let db = RpmDb::new();
        let sol = solver
            .resolve(&db, &SolveRequest::install(["top"]))
            .unwrap();
        assert_eq!(sol.installs.len(), 4, "base must appear exactly once");
    }

    #[test]
    fn normalized_request_dedups_and_digests_stably() {
        let a = SolveRequest::install(["x", "y", "x", "z", "y"]);
        let b = SolveRequest::install(["x", "y", "z"]);
        assert_eq!(a.normalized(), b.normalized());
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), SolveRequest::update(["x", "y", "z"]).digest());
        assert_ne!(
            b.digest(),
            SolveRequest::install(["x", "y", "z"])
                .with_arch(Arch::I686)
                .digest()
        );
    }

    #[test]
    fn group_request_expands_install_set() {
        let group = PackageGroupDef::new("hpc", "HPC libraries")
            .mandatory_pkg("openmpi")
            .default_pkg("fftw")
            .optional_pkg("petsc");
        let plain = SolveRequest::install(Vec::<String>::new()).with_group(&group, false);
        assert_eq!(plain.targets(), ["openmpi", "fftw"]);
        let with_opt = SolveRequest::install(Vec::<String>::new()).with_group(&group, true);
        assert_eq!(with_opt.targets(), ["openmpi", "fftw", "petsc"]);
    }

    #[test]
    fn request_arch_filter_restricts_candidates() {
        let repos = one_repo(vec![
            PackageBuilder::new("tool", "2.0", "1")
                .arch(Arch::X86_64)
                .build(),
            PackageBuilder::new("tool", "1.0", "1")
                .arch(Arch::Noarch)
                .build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let db = RpmDb::new();
        // i686 filter: the x86_64 build is not installable there, so the
        // noarch one is chosen
        let sol = solver
            .resolve(&db, &SolveRequest::install(["tool"]).with_arch(Arch::I686))
            .unwrap();
        assert_eq!(sol.installs[0].evr().version, "1.0");
    }

    #[test]
    fn solve_error_display_phrasing() {
        let direct = SolveError::NothingProvides {
            what: "libctl".into(),
            needed_by: String::new(),
        };
        assert_eq!(direct.to_string(), "no package provides libctl");
        let chained = SolveError::NothingProvides {
            what: "libctl".into(),
            needed_by: "meep-1.2.1-1.x86_64".into(),
        };
        assert_eq!(
            chained.to_string(),
            "no package provides libctl (needed by meep-1.2.1-1.x86_64)"
        );
    }
}
