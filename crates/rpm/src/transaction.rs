//! Ordered install/erase/upgrade transactions over an [`RpmDb`].
//!
//! Mirrors RPM's transaction-set flow: elements are added, the set is
//! *checked* against the database (unresolved requires, conflicts, file
//! conflicts, already-installed, not-installed), *ordered* so that
//! dependencies install before their dependents (Kahn's algorithm with
//! deterministic cycle-breaking, as RPM does for dependency loops), and
//! then *run*, producing a [`TransactionReport`] with a scriptlet trace.

use crate::db::RpmDb;
use crate::dep::Dependency;
use crate::package::Package;
use crate::scriptlet::ScriptletTrace;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::fmt;
use xcbc_fault::{FaultInjector, InjectionPoint};

/// One element of a transaction set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TransactionElement {
    /// Install a new package.
    Install(Package),
    /// Upgrade: install `new`, erase older instances of the same name
    /// (and anything it Obsoletes).
    Upgrade(Package),
    /// Erase an installed package by name.
    Erase(String),
}

impl TransactionElement {
    pub fn label(&self) -> String {
        match self {
            TransactionElement::Install(p) => format!("install {}", p.nevra),
            TransactionElement::Upgrade(p) => format!("upgrade {}", p.nevra),
            TransactionElement::Erase(n) => format!("erase {n}"),
        }
    }
}

/// A problem detected by [`TransactionSet::check`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TransactionProblem {
    /// A Requires of an incoming package is satisfied neither by the
    /// post-transaction database nor by another incoming package.
    UnresolvedRequire { package: String, require: String },
    /// An incoming package conflicts with an installed or incoming one.
    Conflict { package: String, with: String },
    /// Two packages in the result set would own the same file.
    FileConflict { path: String, a: String, b: String },
    /// Install of something already installed at the same or newer EVR.
    AlreadyInstalled { package: String },
    /// Erase of something not installed.
    NotInstalled { name: String },
    /// Erasing this package would break an installed package's Requires.
    BreaksDependents {
        erased: String,
        dependent: String,
        require: String,
    },
    /// Upgrade target is not actually newer.
    NotAnUpgrade { package: String, installed: String },
}

impl fmt::Display for TransactionProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransactionProblem::UnresolvedRequire { package, require } => {
                write!(f, "{package} requires {require} which is not provided")
            }
            TransactionProblem::Conflict { package, with } => {
                write!(f, "{package} conflicts with {with}")
            }
            TransactionProblem::FileConflict { path, a, b } => {
                write!(f, "file {path} conflicts between {a} and {b}")
            }
            TransactionProblem::AlreadyInstalled { package } => {
                write!(f, "{package} is already installed")
            }
            TransactionProblem::NotInstalled { name } => write!(f, "{name} is not installed"),
            TransactionProblem::BreaksDependents {
                erased,
                dependent,
                require,
            } => {
                write!(
                    f,
                    "erasing {erased} breaks {dependent} (requires {require})"
                )
            }
            TransactionProblem::NotAnUpgrade { package, installed } => {
                write!(f, "{package} is not newer than installed {installed}")
            }
        }
    }
}

/// Error returned by [`TransactionSet::run`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TransactionError {
    /// `check` found problems; the database was not touched.
    CheckFailed(Vec<TransactionProblem>),
    /// The set was empty.
    Empty,
    /// A scriptlet failed mid-transaction (fault-injected). The database
    /// was rolled back to its pre-transaction state; `completed` lists
    /// the element labels that had executed before the failure.
    ScriptletFailed {
        package: String,
        completed: Vec<String>,
    },
}

impl fmt::Display for TransactionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransactionError::CheckFailed(ps) => {
                writeln!(f, "transaction check failed ({} problems):", ps.len())?;
                for p in ps {
                    writeln!(f, "  - {p}")?;
                }
                Ok(())
            }
            TransactionError::Empty => write!(f, "empty transaction"),
            TransactionError::ScriptletFailed { package, completed } => write!(
                f,
                "scriptlet failed for {package} after {} element(s); transaction rolled back",
                completed.len()
            ),
        }
    }
}

impl std::error::Error for TransactionError {}

/// Result of a successful [`TransactionSet::run`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TransactionReport {
    /// Elements in execution order (labels).
    pub executed: Vec<String>,
    pub installed: Vec<String>,
    pub upgraded: Vec<String>,
    pub erased: Vec<String>,
    pub scriptlets: Vec<ScriptletTrace>,
    /// Net change in installed bytes (can be negative for erases).
    pub size_delta_bytes: i64,
}

/// A set of package operations applied atomically to an [`RpmDb`].
#[derive(Debug, Clone, Default)]
pub struct TransactionSet {
    elements: Vec<TransactionElement>,
}

impl TransactionSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    pub fn len(&self) -> usize {
        self.elements.len()
    }

    pub fn add_install(&mut self, p: Package) -> &mut Self {
        self.elements.push(TransactionElement::Install(p));
        self
    }

    pub fn add_upgrade(&mut self, p: Package) -> &mut Self {
        self.elements.push(TransactionElement::Upgrade(p));
        self
    }

    pub fn add_erase(&mut self, name: impl Into<String>) -> &mut Self {
        self.elements.push(TransactionElement::Erase(name.into()));
        self
    }

    pub fn elements(&self) -> &[TransactionElement] {
        &self.elements
    }

    /// Names that will be *removed* from the db by this transaction
    /// (explicit erases + upgrade victims + obsoleted packages).
    fn removed_names<'a>(&'a self, db: &'a RpmDb) -> HashSet<&'a str> {
        let mut removed = HashSet::new();
        for e in &self.elements {
            match e {
                TransactionElement::Erase(name) => {
                    removed.insert(name.as_str());
                }
                TransactionElement::Upgrade(p) => {
                    if db.is_installed(p.name()) {
                        removed.insert(p.name());
                    }
                    // Obsoletes match by name, so only that name's
                    // instances can be obsoleted.
                    for o in &p.obsoletes {
                        if db
                            .get(&o.name)
                            .iter()
                            .any(|ip| p.obsoletes_package(&ip.package))
                        {
                            removed.insert(o.name.as_str());
                        }
                    }
                }
                TransactionElement::Install(_) => {}
            }
        }
        removed
    }

    /// Run RPM's pre-flight checks. An empty vector means the transaction
    /// is sound and [`run`](Self::run) will succeed.
    pub fn check(&self, db: &RpmDb) -> Vec<TransactionProblem> {
        let mut problems = Vec::new();
        let removed = self.removed_names(db);
        let incoming = Incoming::new(&self.elements);
        // Is `req` satisfied in the post-transaction world: by an incoming
        // package, or by an installed package that is not being removed?
        let satisfied_post = |req: &Dependency| {
            incoming.providers(req).next().is_some()
                || db
                    .providers(req)
                    .any(|ip| !removed.contains(ip.package.name()))
        };

        for e in &self.elements {
            match e {
                TransactionElement::Install(p) => {
                    if let Some(existing) = db.newest(p.name()) {
                        if existing.package.nevra.evr >= p.nevra.evr {
                            problems.push(TransactionProblem::AlreadyInstalled {
                                package: p.nevra.to_string(),
                            });
                        }
                    }
                }
                TransactionElement::Upgrade(p) => {
                    if let Some(existing) = db.newest(p.name()) {
                        if existing.package.nevra.evr >= p.nevra.evr {
                            problems.push(TransactionProblem::NotAnUpgrade {
                                package: p.nevra.to_string(),
                                installed: existing.package.nevra.to_string(),
                            });
                        }
                    }
                }
                TransactionElement::Erase(name) => {
                    if !db.is_installed(name) {
                        problems.push(TransactionProblem::NotInstalled { name: name.clone() });
                        continue;
                    }
                    // Would the erase break a surviving dependent?
                    for dependent in db.iter() {
                        if removed.contains(dependent.package.name()) {
                            continue;
                        }
                        for req in &dependent.package.requires {
                            let only_from_erased =
                                db.get(name).iter().any(|ip| ip.package.satisfies(req))
                                    && !satisfied_post(req);
                            if only_from_erased {
                                problems.push(TransactionProblem::BreaksDependents {
                                    erased: name.clone(),
                                    dependent: dependent.package.nevra.to_string(),
                                    require: req.to_string(),
                                });
                            }
                        }
                    }
                }
            }
        }

        // Requires of incoming packages.
        for p in &incoming.packages {
            for req in &p.requires {
                if !satisfied_post(req) {
                    problems.push(TransactionProblem::UnresolvedRequire {
                        package: p.nevra.to_string(),
                        require: req.to_string(),
                    });
                }
            }
        }

        // Conflicts: incoming vs (surviving installed + other incoming).
        // Installed packages without Conflicts can never match the
        // reverse direction, so that scan skips them up front.
        let conflicting_installed: Vec<_> = db
            .iter()
            .filter(|ip| !ip.package.conflicts.is_empty())
            .collect();
        for p in &incoming.packages {
            for conflict in &p.conflicts {
                for ip in db.providers(conflict) {
                    if !removed.contains(ip.package.name()) && ip.package.name() != p.name() {
                        problems.push(TransactionProblem::Conflict {
                            package: p.nevra.to_string(),
                            with: ip.package.nevra.to_string(),
                        });
                    }
                }
                for other in incoming.providers(conflict) {
                    let other = incoming.packages[other];
                    if other.name() != p.name() {
                        problems.push(TransactionProblem::Conflict {
                            package: p.nevra.to_string(),
                            with: other.nevra.to_string(),
                        });
                    }
                }
            }
            // Reverse direction: surviving installed packages that conflict
            // with the incoming package.
            for ip in &conflicting_installed {
                if removed.contains(ip.package.name()) || ip.package.name() == p.name() {
                    continue;
                }
                if ip.package.conflicts.iter().any(|c| p.satisfies(c)) {
                    problems.push(TransactionProblem::Conflict {
                        package: p.nevra.to_string(),
                        with: ip.package.nevra.to_string(),
                    });
                }
            }
        }

        // File conflicts among the post-transaction set.
        let mut owners: BTreeMap<&str, &Package> = BTreeMap::new();
        for p in &incoming.packages {
            for f in &p.files {
                if let Some(other) = owners.get(f.as_str()) {
                    if other.name() != p.name() {
                        problems.push(TransactionProblem::FileConflict {
                            path: f.clone(),
                            a: other.nevra.to_string(),
                            b: p.nevra.to_string(),
                        });
                    }
                } else {
                    owners.insert(f, p);
                }
            }
        }
        for p in &incoming.packages {
            for f in &p.files {
                for ip in db.file_owners(f) {
                    if removed.contains(ip.package.name()) || ip.package.name() == p.name() {
                        continue;
                    }
                    problems.push(TransactionProblem::FileConflict {
                        path: f.clone(),
                        a: ip.package.nevra.to_string(),
                        b: p.nevra.to_string(),
                    });
                }
            }
        }

        problems
    }

    /// Topologically order the install-side elements so dependencies come
    /// first (Kahn's algorithm; ties and cycles broken by name order, the
    /// way RPM falls back on presentation order for dependency loops).
    /// Erases run last, in reverse-dependency order.
    pub fn order(&self) -> Vec<TransactionElement> {
        let incoming = Incoming::new(&self.elements);
        let pkgs = &incoming.packages;
        let n = pkgs.len();
        // edge u -> v  means "u must install before v" (v requires u).
        let mut before: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (vi, v) in pkgs.iter().enumerate() {
            for req in &v.requires {
                for ui in incoming.providers(req) {
                    if ui != vi {
                        before[ui].push(vi);
                        indeg[vi] += 1;
                    }
                }
            }
        }
        // Deterministic Kahn: pick the ready node with the smallest name;
        // among equal names (multilib instances), the one that became
        // ready last.
        let mut ready = BinaryHeap::with_capacity(n);
        let mut readied = 0usize;
        let mut make_ready = |ready: &mut BinaryHeap<_>, i: usize| {
            ready.push((Reverse(pkgs[i].name()), readied, i));
            readied += 1;
        };
        for i in (0..n).filter(|&i| indeg[i] == 0) {
            make_ready(&mut ready, i);
        }
        // Cycle-break candidates: smallest name first, then input order.
        let mut by_name: Vec<usize> = (0..n).collect();
        by_name.sort_by_key(|&i| pkgs[i].name());
        let mut cycle_cursor = 0usize;
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut done = vec![false; n];
        while order.len() < n {
            let next = match ready.pop() {
                Some((_, _, i)) => i,
                None => {
                    // Cycle: break it at the not-yet-done node with the
                    // smallest name.
                    while done[by_name[cycle_cursor]] {
                        cycle_cursor += 1;
                    }
                    by_name[cycle_cursor]
                }
            };
            if done[next] {
                continue;
            }
            done[next] = true;
            order.push(next);
            for &v in &before[next] {
                if indeg[v] > 0 {
                    indeg[v] -= 1;
                    if indeg[v] == 0 && !done[v] {
                        make_ready(&mut ready, v);
                    }
                }
            }
        }

        let elements = &self.elements;
        let mut out: Vec<TransactionElement> = order
            .iter()
            .map(|&i| elements[incoming.elements[i]].clone())
            .collect();
        out.extend(
            elements
                .iter()
                .filter(|e| matches!(e, TransactionElement::Erase(_)))
                .cloned(),
        );
        out
    }

    /// Check, order, and execute the transaction against `db`.
    pub fn run(&self, db: &mut RpmDb) -> Result<TransactionReport, TransactionError> {
        self.preflight(db)?;
        Ok(self
            .execute(db, &mut |_| false)
            .expect("ungated execution cannot fail"))
    }

    /// Like [`run`](Self::run), but scriptlets can be failed by a
    /// `rpm.scriptlet` fault from `injector` (keyed by package name).
    /// On a scriptlet fault the database is rolled back to its
    /// pre-transaction state and
    /// [`TransactionError::ScriptletFailed`] reports how far execution
    /// had gotten.
    pub fn run_injected(
        &self,
        db: &mut RpmDb,
        injector: &mut FaultInjector,
    ) -> Result<TransactionReport, TransactionError> {
        self.preflight(db)?;
        let snapshot = db.clone();
        self.execute(db, &mut |p| {
            injector
                .should_fault(InjectionPoint::RpmScriptlet, p.name())
                .is_some()
        })
        .inspect_err(|_| *db = snapshot)
    }

    fn preflight(&self, db: &RpmDb) -> Result<(), TransactionError> {
        if self.is_empty() {
            return Err(TransactionError::Empty);
        }
        let problems = self.check(db);
        if !problems.is_empty() {
            return Err(TransactionError::CheckFailed(problems));
        }
        Ok(())
    }

    /// The execution loop shared by [`run`](Self::run) and
    /// [`run_injected`](Self::run_injected). `scriptlet_fails` is
    /// consulted once per install-side element, before its scriptlets
    /// run; a `true` aborts with [`TransactionError::ScriptletFailed`]
    /// (the caller owns rollback).
    fn execute(
        &self,
        db: &mut RpmDb,
        scriptlet_fails: &mut dyn FnMut(&Package) -> bool,
    ) -> Result<TransactionReport, TransactionError> {
        let mut report = TransactionReport::default();
        let ordered = self.order();
        let mut queue: VecDeque<TransactionElement> = ordered.into_iter().collect();
        while let Some(e) = queue.pop_front() {
            if let TransactionElement::Install(p) | TransactionElement::Upgrade(p) = &e {
                if scriptlet_fails(p) {
                    return Err(TransactionError::ScriptletFailed {
                        package: p.nevra.to_string(),
                        completed: report.executed,
                    });
                }
            }
            report.executed.push(e.label());
            match e {
                TransactionElement::Install(p) => {
                    run_scriptlets(&p, true, &mut report);
                    report.size_delta_bytes += p.size_bytes as i64;
                    report.installed.push(p.nevra.to_string());
                    db.install(p);
                }
                TransactionElement::Upgrade(p) => {
                    // Erase obsoleted + older same-name instances first.
                    let mut victims: Vec<String> = Vec::new();
                    if db.is_installed(p.name()) {
                        victims.push(p.name().to_string());
                    }
                    for ip in db.iter() {
                        if p.obsoletes_package(&ip.package) {
                            victims.push(ip.package.name().to_string());
                        }
                    }
                    victims.dedup();
                    run_scriptlets(&p, true, &mut report);
                    for v in victims {
                        for old in db.erase(&v) {
                            report.size_delta_bytes -= old.package.size_bytes as i64;
                            run_scriptlets(&old.package, false, &mut report);
                        }
                    }
                    report.size_delta_bytes += p.size_bytes as i64;
                    report.upgraded.push(p.nevra.to_string());
                    db.install(p);
                }
                TransactionElement::Erase(name) => {
                    for old in db.erase(&name) {
                        report.size_delta_bytes -= old.package.size_bytes as i64;
                        run_scriptlets(&old.package, false, &mut report);
                        report.erased.push(old.package.nevra.to_string());
                    }
                }
            }
        }
        Ok(report)
    }
}

/// The install-side packages of a set, in input order, with a
/// capability index: every package name, Provides name and file path
/// paired with the position of the package carrying it, sorted, so the
/// packages that may satisfy a dependency form one run of ascending
/// positions. Built once per [`TransactionSet::check`] or
/// [`TransactionSet::order`]; lookups only narrow the search, every
/// candidate is confirmed with [`Package::satisfies`].
struct Incoming<'a> {
    packages: Vec<&'a Package>,
    /// `elements[i]` is the index in the set of `packages[i]`'s element.
    elements: Vec<usize>,
    by_capability: Vec<(&'a str, usize)>,
}

impl<'a> Incoming<'a> {
    fn new(elements: &'a [TransactionElement]) -> Self {
        let mut incoming = Incoming {
            packages: Vec::new(),
            elements: Vec::new(),
            by_capability: Vec::new(),
        };
        for (ei, e) in elements.iter().enumerate() {
            let (TransactionElement::Install(p) | TransactionElement::Upgrade(p)) = e else {
                continue;
            };
            let pos = incoming.packages.len();
            incoming.packages.push(p);
            incoming.elements.push(ei);
            let keys = std::iter::once(p.name())
                .chain(p.provides.iter().map(|d| d.name.as_str()))
                .chain(p.files.iter().map(String::as_str));
            incoming.by_capability.extend(keys.map(|key| (key, pos)));
        }
        incoming.by_capability.sort_unstable();
        incoming.by_capability.dedup();
        incoming
    }

    /// Positions of the incoming packages that satisfy `req`, ascending.
    fn providers<'s>(&'s self, req: &'s Dependency) -> impl Iterator<Item = usize> + 's {
        let name = req.name.as_str();
        let start = self.by_capability.partition_point(|&(key, _)| key < name);
        self.by_capability[start..]
            .iter()
            .take_while(move |&&(key, _)| key == name)
            .map(|&(_, pos)| pos)
            .filter(move |&pos| self.packages[pos].satisfies(req))
    }
}

fn run_scriptlets(p: &Package, install_side: bool, report: &mut TransactionReport) {
    for s in &p.scriptlets {
        if s.phase.is_install_phase() == install_side {
            report.scriptlets.push(ScriptletTrace {
                package: p.nevra.to_string(),
                phase: s.phase,
                action: s.action.clone(),
                succeeded: true,
            });
        }
    }
}

/// Convenience: build an upgrade transaction that takes `db` from its
/// current contents to the newest EVR available in `candidates` for every
/// installed name (the core of `yum update`).
pub fn upgrade_all<'a>(
    db: &RpmDb,
    candidates: impl IntoIterator<Item = &'a Package>,
) -> TransactionSet {
    let mut best: BTreeMap<&str, &Package> = BTreeMap::new();
    for c in candidates {
        if let Some(installed) = db.newest(c.name()) {
            if c.nevra.evr > installed.package.nevra.evr {
                let slot = best.entry(c.name()).or_insert(c);
                if c.nevra.evr > slot.nevra.evr {
                    *slot = c;
                }
            }
        }
    }
    let mut tx = TransactionSet::new();
    for (_, p) in best {
        tx.add_upgrade(p.clone());
    }
    tx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PackageBuilder;
    use crate::scriptlet::{Scriptlet, ScriptletPhase};

    #[test]
    fn empty_transaction_is_error() {
        let mut db = RpmDb::new();
        assert!(matches!(
            TransactionSet::new().run(&mut db),
            Err(TransactionError::Empty)
        ));
    }

    #[test]
    fn simple_install() {
        let mut db = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("gcc", "4.4.7", "17")
                .size_mb(80)
                .build(),
        );
        let report = tx.run(&mut db).unwrap();
        assert_eq!(report.installed, vec!["gcc-4.4.7-17.x86_64"]);
        assert_eq!(report.size_delta_bytes, 80 << 20);
        assert!(db.is_installed("gcc"));
    }

    #[test]
    fn unresolved_require_rejected() {
        let mut db = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .build(),
        );
        match tx.run(&mut db) {
            Err(TransactionError::CheckFailed(ps)) => {
                assert!(matches!(
                    ps[0],
                    TransactionProblem::UnresolvedRequire { .. }
                ))
            }
            other => panic!("expected check failure, got {other:?}"),
        }
        assert!(db.is_empty(), "failed transaction must not touch the db");
    }

    #[test]
    fn require_satisfied_by_co_installed() {
        let mut db = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .build(),
        );
        tx.add_install(
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
        );
        assert!(tx.check(&db).is_empty());
        let report = tx.run(&mut db).unwrap();
        // dependency must be installed first
        let pos_mpi = report
            .executed
            .iter()
            .position(|l| l.contains("openmpi"))
            .unwrap();
        let pos_gro = report
            .executed
            .iter()
            .position(|l| l.contains("gromacs"))
            .unwrap();
        assert!(
            pos_mpi < pos_gro,
            "openmpi must install before gromacs: {:?}",
            report.executed
        );
    }

    #[test]
    fn ordering_is_topological_chain() {
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("c", "1", "1")
                .requires_simple("b")
                .build(),
        );
        tx.add_install(PackageBuilder::new("a", "1", "1").build());
        tx.add_install(
            PackageBuilder::new("b", "1", "1")
                .requires_simple("a")
                .build(),
        );
        let order: Vec<String> = tx.order().iter().map(|e| e.label()).collect();
        let pos = |n: &str| {
            order
                .iter()
                .position(|l| l.contains(&format!("install {n}-")))
                .unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
    }

    #[test]
    fn cycle_is_broken_deterministically() {
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("x", "1", "1")
                .requires_simple("y")
                .build(),
        );
        tx.add_install(
            PackageBuilder::new("y", "1", "1")
                .requires_simple("x")
                .build(),
        );
        let order = tx.order();
        assert_eq!(order.len(), 2);
        let mut db = RpmDb::new();
        tx.run(&mut db).unwrap();
        assert!(db.is_installed("x") && db.is_installed("y"));
    }

    #[test]
    fn conflict_with_installed_rejected() {
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("slurm", "14.03", "1").build());
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("torque", "4.2.10", "1")
                .conflicts_spec("slurm")
                .build(),
        );
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::Conflict { .. })));
    }

    #[test]
    fn conflict_resolved_by_erasing_other_side() {
        // The paper's XNIT workflow: "change the schedulers" — erase slurm,
        // install torque, in one transaction.
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("slurm", "14.03", "1").build());
        let mut tx = TransactionSet::new();
        tx.add_erase("slurm");
        tx.add_install(
            PackageBuilder::new("torque", "4.2.10", "1")
                .conflicts_spec("slurm")
                .build(),
        );
        assert!(tx.check(&db).is_empty(), "{:?}", tx.check(&db));
        tx.run(&mut db).unwrap();
        assert!(db.is_installed("torque"));
        assert!(!db.is_installed("slurm"));
    }

    #[test]
    fn reverse_conflict_detected() {
        let mut db = RpmDb::new();
        db.install(
            PackageBuilder::new("torque", "4.2.10", "1")
                .conflicts_spec("slurm")
                .build(),
        );
        let mut tx = TransactionSet::new();
        tx.add_install(PackageBuilder::new("slurm", "14.03", "1").build());
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::Conflict { .. })));
    }

    #[test]
    fn erase_that_breaks_dependent_rejected() {
        let mut db = RpmDb::new();
        db.install(
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
        );
        db.install(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .build(),
        );
        let mut tx = TransactionSet::new();
        tx.add_erase("openmpi");
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::BreaksDependents { .. })));
    }

    #[test]
    fn erase_ok_when_replacement_provided() {
        let mut db = RpmDb::new();
        db.install(
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
        );
        db.install(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .build(),
        );
        let mut tx = TransactionSet::new();
        tx.add_erase("openmpi");
        tx.add_install(
            PackageBuilder::new("mpich2", "1.4.1", "1")
                .provides_versioned("mpi")
                .build(),
        );
        assert!(tx.check(&db).is_empty(), "{:?}", tx.check(&db));
    }

    #[test]
    fn upgrade_replaces_old_and_runs_scriptlets() {
        let mut db = RpmDb::new();
        db.install(
            PackageBuilder::new("R", "3.0.2", "1.el6")
                .size_mb(60)
                .scriptlet(Scriptlet::new(ScriptletPhase::PostUn, "cleanup R 3.0"))
                .build(),
        );
        let mut tx = TransactionSet::new();
        tx.add_upgrade(
            PackageBuilder::new("R", "3.1.0", "1.el6")
                .size_mb(70)
                .scriptlet(Scriptlet::new(ScriptletPhase::Post, "register R 3.1"))
                .build(),
        );
        let report = tx.run(&mut db).unwrap();
        assert_eq!(db.get("R").len(), 1);
        assert_eq!(db.newest("R").unwrap().package.evr().version, "3.1.0");
        assert_eq!(report.size_delta_bytes, (70i64 - 60) << 20);
        assert!(report
            .scriptlets
            .iter()
            .any(|s| s.action == "register R 3.1"));
        assert!(report
            .scriptlets
            .iter()
            .any(|s| s.action == "cleanup R 3.0"));
    }

    #[test]
    fn downgrade_rejected_as_upgrade() {
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("R", "3.1.0", "1").build());
        let mut tx = TransactionSet::new();
        tx.add_upgrade(PackageBuilder::new("R", "3.0.2", "1").build());
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::NotAnUpgrade { .. })));
    }

    #[test]
    fn obsoletes_pulls_out_old_package() {
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("pbs", "2.3.16", "1").build());
        let mut tx = TransactionSet::new();
        tx.add_upgrade(
            PackageBuilder::new("torque", "4.2.10", "1")
                .obsoletes(Dependency::parse("pbs < 3.0"))
                .build(),
        );
        tx.run(&mut db).unwrap();
        assert!(db.is_installed("torque"));
        assert!(!db.is_installed("pbs"));
    }

    #[test]
    fn file_conflict_between_incoming_rejected() {
        let db = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("a", "1", "1")
                .file("/usr/bin/tool")
                .build(),
        );
        tx.add_install(
            PackageBuilder::new("b", "1", "1")
                .file("/usr/bin/tool")
                .build(),
        );
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::FileConflict { .. })));
    }

    #[test]
    fn already_installed_rejected() {
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("gcc", "4.4.7", "17").build());
        let mut tx = TransactionSet::new();
        tx.add_install(PackageBuilder::new("gcc", "4.4.7", "17").build());
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::AlreadyInstalled { .. })));
    }

    #[test]
    fn erase_not_installed_rejected() {
        let db = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_erase("ghost");
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::NotInstalled { .. })));
    }

    #[test]
    fn upgrade_all_builds_minimal_set() {
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("R", "3.0.2", "1").build());
        db.install(PackageBuilder::new("gcc", "4.4.7", "17").build());
        let candidates = [
            PackageBuilder::new("R", "3.1.0", "1").build(),
            PackageBuilder::new("R", "3.1.1", "1").build(),
            PackageBuilder::new("gcc", "4.4.7", "17").build(), // same, skipped
            PackageBuilder::new("newpkg", "1.0", "1").build(), // not installed, skipped
        ];
        let tx = upgrade_all(&db, candidates.iter());
        assert_eq!(tx.len(), 1);
        assert_eq!(tx.elements()[0].label(), "upgrade R-3.1.1-1.x86_64");
    }

    #[test]
    fn injected_scriptlet_fault_rolls_back_cleanly() {
        use xcbc_fault::{FaultPlan, FaultWindow, InjectionPoint};
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("base", "1", "1").build());
        let before = db.clone();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
        );
        tx.add_install(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .scriptlet(Scriptlet::new(ScriptletPhase::Post, "register gromacs"))
                .build(),
        );
        let plan = FaultPlan::new(3).fail(
            InjectionPoint::RpmScriptlet,
            Some("gromacs"),
            FaultWindow::Always,
        );
        let mut inj = plan.injector();
        match tx.run_injected(&mut db, &mut inj) {
            Err(TransactionError::ScriptletFailed { package, completed }) => {
                assert!(package.contains("gromacs"));
                // openmpi orders first, so one element had executed.
                assert_eq!(completed, vec!["install openmpi-1.6.5-1.x86_64"]);
            }
            other => panic!("expected scriptlet failure, got {other:?}"),
        }
        assert_eq!(db, before, "rollback must restore the pre-transaction db");
        assert!(
            !db.is_installed("openmpi"),
            "partial installs must be undone"
        );
    }

    #[test]
    fn injected_run_without_matching_fault_behaves_like_run() {
        use xcbc_fault::FaultPlan;
        let mut db_a = RpmDb::new();
        let mut db_b = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("gcc", "4.4.7", "17")
                .size_mb(80)
                .build(),
        );
        let plain = tx.run(&mut db_a).unwrap();
        let mut inj = FaultPlan::new(5).injector();
        let injected = tx.run_injected(&mut db_b, &mut inj).unwrap();
        assert_eq!(plain.executed, injected.executed);
        assert_eq!(db_a, db_b);
        assert_eq!(inj.injected_count(), 0);
    }

    #[test]
    fn install_erase_roundtrip_restores_db() {
        let mut db = RpmDb::new();
        let before = db.len();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("valgrind", "3.8.1", "3")
                .file("/usr/bin/valgrind")
                .build(),
        );
        tx.run(&mut db).unwrap();
        let mut tx2 = TransactionSet::new();
        tx2.add_erase("valgrind");
        let report = tx2.run(&mut db).unwrap();
        assert_eq!(db.len(), before);
        assert_eq!(report.erased.len(), 1);
        assert_eq!(db.installed_size_bytes(), 0);
    }
}
