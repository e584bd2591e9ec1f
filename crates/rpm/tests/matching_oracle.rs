//! Oracle tests for the rpm layer's dependency matching.
//!
//! `Package::satisfies`/`obsoletes_package` match the implicit
//! self-provide in place, and `TransactionSet::check`/`order` look up a
//! capability index of the incoming set. The straightforward algorithms
//! they replaced live on here, and only here, as references: every
//! answer, problem vector and element order must equal theirs over
//! randomly generated packages, databases and transaction sets.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use xcbc_rpm::{
    Arch, DepFlag, Dependency, Evr, InstalledPackage, Package, PackageBuilder, RpmDb,
    TransactionElement, TransactionProblem, TransactionSet,
};

// --- reference algorithms -------------------------------------------------

/// Match against a freshly built `all_provides()` list.
fn ref_satisfies(p: &Package, req: &Dependency) -> bool {
    if req.is_file_dep() {
        return p.files.iter().any(|f| f == &req.name);
    }
    p.all_provides().iter().any(|d| d.satisfies(req))
}

/// Build the target's `name = EVR` and match it against each Obsoletes.
fn ref_obsoletes(p: &Package, other: &Package) -> bool {
    let target = Dependency::versioned(
        other.nevra.name.clone(),
        DepFlag::Eq,
        other.nevra.evr.clone(),
    );
    p.obsoletes.iter().any(|o| target.satisfies(o))
}

/// An install-only database plus its install history, so the reference
/// can rebuild the file index's owner order without reading it.
struct Db {
    db: RpmDb,
    installed: Vec<Package>,
}

impl Db {
    fn new(packages: Vec<Package>) -> Self {
        let mut db = RpmDb::new();
        for p in &packages {
            db.install(p.clone());
        }
        Db {
            db,
            installed: packages,
        }
    }

    /// `whatprovides` by linear scan; file deps list owner names in the
    /// order a name first installed a package owning the path.
    fn whatprovides(&self, req: &Dependency) -> Vec<&InstalledPackage> {
        if req.is_file_dep() {
            let mut names: Vec<&str> = Vec::new();
            for p in &self.installed {
                if p.files.contains(&req.name) && !names.contains(&p.name()) {
                    names.push(p.name());
                }
            }
            return names
                .into_iter()
                .flat_map(|n| self.db.get(n))
                .filter(|ip| ip.package.files.contains(&req.name))
                .collect();
        }
        self.db
            .iter()
            .filter(|ip| ref_satisfies(&ip.package, req))
            .collect()
    }
}

fn ref_incoming(tx: &TransactionSet) -> Vec<&Package> {
    tx.elements()
        .iter()
        .filter_map(|e| match e {
            TransactionElement::Install(p) | TransactionElement::Upgrade(p) => Some(p),
            TransactionElement::Erase(_) => None,
        })
        .collect()
}

fn ref_removed(tx: &TransactionSet, db: &RpmDb) -> HashSet<String> {
    let mut removed: HashSet<String> = tx
        .elements()
        .iter()
        .filter_map(|e| match e {
            TransactionElement::Erase(n) => Some(n.clone()),
            _ => None,
        })
        .collect();
    for e in tx.elements() {
        if let TransactionElement::Upgrade(p) = e {
            if db.is_installed(p.name()) {
                removed.insert(p.name().to_string());
            }
            for ip in db.iter() {
                if ref_obsoletes(p, &ip.package) {
                    removed.insert(ip.package.name().to_string());
                }
            }
        }
    }
    removed
}

fn ref_satisfied_post(
    tx: &TransactionSet,
    db: &Db,
    req: &Dependency,
    removed: &HashSet<String>,
) -> bool {
    if ref_incoming(tx).iter().any(|p| ref_satisfies(p, req)) {
        return true;
    }
    db.whatprovides(req)
        .iter()
        .any(|ip| !removed.contains(ip.package.name()))
}

fn ref_check(tx: &TransactionSet, dbx: &Db) -> Vec<TransactionProblem> {
    let db = &dbx.db;
    let mut problems = Vec::new();
    let removed = ref_removed(tx, db);
    let incoming = ref_incoming(tx);

    for e in tx.elements() {
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
                for dependent in db.iter() {
                    if removed.contains(dependent.package.name()) {
                        continue;
                    }
                    for req in &dependent.package.requires {
                        let only_from_erased = db
                            .get(name)
                            .iter()
                            .any(|ip| ref_satisfies(&ip.package, req))
                            && !ref_satisfied_post(tx, dbx, req, &removed);
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

    for p in &incoming {
        for req in &p.requires {
            if !ref_satisfied_post(tx, dbx, req, &removed) {
                problems.push(TransactionProblem::UnresolvedRequire {
                    package: p.nevra.to_string(),
                    require: req.to_string(),
                });
            }
        }
    }

    for p in &incoming {
        for conflict in &p.conflicts {
            for ip in dbx.whatprovides(conflict) {
                if !removed.contains(ip.package.name()) && ip.package.name() != p.name() {
                    problems.push(TransactionProblem::Conflict {
                        package: p.nevra.to_string(),
                        with: ip.package.nevra.to_string(),
                    });
                }
            }
            for other in &incoming {
                if other.name() != p.name() && ref_satisfies(other, conflict) {
                    problems.push(TransactionProblem::Conflict {
                        package: p.nevra.to_string(),
                        with: other.nevra.to_string(),
                    });
                }
            }
        }
        for ip in db.iter() {
            if removed.contains(ip.package.name()) || ip.package.name() == p.name() {
                continue;
            }
            if ip.package.conflicts.iter().any(|c| ref_satisfies(p, c)) {
                problems.push(TransactionProblem::Conflict {
                    package: p.nevra.to_string(),
                    with: ip.package.nevra.to_string(),
                });
            }
        }
    }

    let mut owners: BTreeMap<&str, &Package> = BTreeMap::new();
    for p in &incoming {
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
    for p in &incoming {
        for f in &p.files {
            for ip in db.iter() {
                if removed.contains(ip.package.name()) || ip.package.name() == p.name() {
                    continue;
                }
                if ip.package.files.contains(f) {
                    problems.push(TransactionProblem::FileConflict {
                        path: f.clone(),
                        a: ip.package.nevra.to_string(),
                        b: p.nevra.to_string(),
                    });
                }
            }
        }
    }
    problems
}

/// Kahn's algorithm over an all-pairs edge scan, re-sorting the ready
/// list every step, with `ptr::eq` mapping back to elements.
fn ref_order(tx: &TransactionSet) -> Vec<String> {
    let incoming = ref_incoming(tx);
    let n = incoming.len();
    let mut before: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (vi, v) in incoming.iter().enumerate() {
        for req in &v.requires {
            for (ui, u) in incoming.iter().enumerate() {
                if ui != vi && ref_satisfies(u, req) {
                    before[ui].push(vi);
                    indeg[vi] += 1;
                }
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut done = vec![false; n];
    while order.len() < n {
        ready.sort_by(|&a, &b| incoming[b].name().cmp(incoming[a].name()));
        let next = match ready.pop() {
            Some(i) => i,
            None => (0..n)
                .filter(|&i| !done[i])
                .min_by(|&a, &b| incoming[a].name().cmp(incoming[b].name()))
                .expect("cycle-break candidate exists"),
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
                    ready.push(v);
                }
            }
        }
    }
    let elements = tx.elements();
    let mut out = Vec::with_capacity(elements.len());
    let mut used = vec![false; elements.len()];
    for &idx in &order {
        let target = incoming[idx];
        for (ei, e) in elements.iter().enumerate() {
            if used[ei] {
                continue;
            }
            match e {
                TransactionElement::Install(p) | TransactionElement::Upgrade(p)
                    if std::ptr::eq(p, target) =>
                {
                    used[ei] = true;
                    out.push(e.label());
                    break;
                }
                _ => {}
            }
        }
    }
    for (ei, e) in elements.iter().enumerate() {
        if !used[ei] {
            if let TransactionElement::Erase(_) = e {
                out.push(e.label());
            }
        }
    }
    out
}

// --- generators -------------------------------------------------------------

/// splitmix64: a tiny deterministic generator driven by one proptest seed.
struct Gen(u64);

impl Gen {
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

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Few names, so requires, conflicts, obsoletes and multilib instances
/// collide often; capabilities and paths are shared the same way.
const NAMES: &[&str] = &["a", "b", "c", "d", "e"];
const CAPS: &[&str] = &["mpi", "blas"];
const PATHS: &[&str] = &["/usr/bin/tool", "/etc/conf", "/usr/lib/libx.so"];
const VERSIONS: &[&str] = &["1.0", "1.2", "2.0", "1.0~rc1", "10", "1.05"];
const RELEASES: &[&str] = &["1", "2", ""];
const FLAGS: &[DepFlag] = &[
    DepFlag::Any,
    DepFlag::Eq,
    DepFlag::Lt,
    DepFlag::Le,
    DepFlag::Gt,
    DepFlag::Ge,
];

fn gen_evr(g: &mut Gen) -> Evr {
    let epoch = if g.chance(20) { 1 } else { 0 };
    Evr::new(epoch, g.pick(VERSIONS), g.pick(RELEASES))
}

/// Any flag with or without an EVR, including the flag/EVR mismatches a
/// deserialized header can carry (`Any` with an EVR, `>=` without one).
fn gen_dep(g: &mut Gen, names: &[&str]) -> Dependency {
    let flag = FLAGS[g.below(FLAGS.len())];
    let versioned = if flag == DepFlag::Any {
        g.chance(10)
    } else {
        !g.chance(10)
    };
    Dependency {
        name: g.pick(names).to_string(),
        flag,
        evr: versioned.then(|| gen_evr(g)),
    }
}

fn gen_package(g: &mut Gen) -> Package {
    let evr = gen_evr(g);
    let arch = if g.chance(30) {
        Arch::I686
    } else {
        Arch::X86_64
    };
    let mut b = PackageBuilder::new(g.pick(NAMES), &evr.version, &evr.release)
        .epoch(evr.epoch)
        .arch(arch);
    let any_name: Vec<&str> = NAMES.iter().chain(CAPS).copied().collect();
    let any_target: Vec<&str> = any_name.iter().chain(PATHS).copied().collect();
    for _ in 0..g.below(3) {
        b = b.provides(gen_dep(g, &any_name));
    }
    for _ in 0..g.below(3) {
        b = b.requires(gen_dep(g, &any_target));
    }
    for _ in 0..g.below(2) {
        b = b.conflicts(gen_dep(g, &any_target));
    }
    for _ in 0..g.below(2) {
        b = b.obsoletes(gen_dep(g, NAMES));
    }
    for _ in 0..g.below(3) {
        b = b.file(g.pick(PATHS));
    }
    b.build()
}

fn gen_world(seed: u64) -> (Db, TransactionSet) {
    let mut g = Gen(seed);
    let installed = (0..g.below(7)).map(|_| gen_package(&mut g)).collect();
    let mut tx = TransactionSet::new();
    for _ in 0..g.below(9) {
        match g.below(5) {
            0 => {
                tx.add_erase(g.pick(NAMES));
            }
            1 | 2 => {
                tx.add_upgrade(gen_package(&mut g));
            }
            _ => {
                tx.add_install(gen_package(&mut g));
            }
        }
    }
    (Db::new(installed), tx)
}

fn labels(elements: &[TransactionElement]) -> Vec<String> {
    elements.iter().map(TransactionElement::label).collect()
}

// --- properties -------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn satisfies_and_obsoletes_match_all_provides_reference(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let p = gen_package(&mut g);
        let other = gen_package(&mut g);
        let targets: Vec<&str> = NAMES.iter().chain(CAPS).chain(PATHS).copied().collect();
        for _ in 0..16 {
            let req = gen_dep(&mut g, &targets);
            prop_assert_eq!(p.satisfies(&req), ref_satisfies(&p, &req), "{} vs {}", p, req);
        }
        // Self-provides: the package's own name at and around its EVR.
        for flag in FLAGS {
            let req = Dependency { name: p.name().to_string(), flag: *flag, evr: Some(p.evr().clone()) };
            prop_assert_eq!(p.satisfies(&req), ref_satisfies(&p, &req), "{} vs {}", p, req);
        }
        prop_assert_eq!(p.obsoletes_package(&other), ref_obsoletes(&p, &other));
        prop_assert_eq!(p.obsoletes_package(&p), ref_obsoletes(&p, &p));
    }

    #[test]
    fn check_and_order_match_rescanning_reference(seed in any::<u64>()) {
        let (db, tx) = gen_world(seed);
        prop_assert_eq!(tx.check(&db.db), ref_check(&tx, &db));
        prop_assert_eq!(labels(&tx.order()), ref_order(&tx));
    }
}

/// The generator must reach every problem kind, an upgrade that
/// obsoletes something installed, and a Requires cycle, or the oracle
/// above compares only the easy cases.
#[test]
fn oracle_generator_covers_every_case() {
    let mut kinds: HashSet<&str> = HashSet::new();
    for seed in 0..2000u64 {
        let (db, tx) = gen_world(seed);
        for p in tx.check(&db.db) {
            kinds.insert(match p {
                TransactionProblem::UnresolvedRequire { .. } => "unresolved",
                TransactionProblem::Conflict { .. } => "conflict",
                TransactionProblem::FileConflict { .. } => "file-conflict",
                TransactionProblem::AlreadyInstalled { .. } => "already-installed",
                TransactionProblem::NotInstalled { .. } => "not-installed",
                TransactionProblem::BreaksDependents { .. } => "breaks-dependents",
                TransactionProblem::NotAnUpgrade { .. } => "not-an-upgrade",
            });
        }
        let incoming = ref_incoming(&tx);
        for e in tx.elements() {
            if let TransactionElement::Upgrade(p) = e {
                if db.db.iter().any(|ip| p.obsoletes_package(&ip.package)) {
                    kinds.insert("obsoletes-installed");
                }
            }
        }
        let requires = |u: &Package, v: &Package| v.requires.iter().any(|r| u.satisfies(r));
        for (i, u) in incoming.iter().enumerate() {
            for v in &incoming[i + 1..] {
                if u.name() == v.name() && u.arch() != v.arch() {
                    kinds.insert("multilib");
                }
                if requires(u, v) && requires(v, u) {
                    kinds.insert("cycle");
                }
            }
        }
    }
    let mut seen: Vec<&str> = kinds.into_iter().collect();
    seen.sort_unstable();
    assert_eq!(
        seen,
        [
            "already-installed",
            "breaks-dependents",
            "conflict",
            "cycle",
            "file-conflict",
            "multilib",
            "not-an-upgrade",
            "not-installed",
            "obsoletes-installed",
            "unresolved",
        ]
    );
}
