//! A Yum repository: identity, state, and the packages it carries.
//!
//! The packages live in a copy-on-write store shared by every clone of
//! the repository, next to a lookup index built on first use: cloning
//! a repository is O(1), and a process that loads one catalog indexes
//! it once however many engines, tenants or overlay nodes carry it.

use crate::metadata::RepoMetadata;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use xcbc_rpm::{Dependency, Evr, Package};

/// A package repository, e.g. `base`, `updates`, or the paper's `xsede`
/// repo at `http://cb-repo.iu.xsede.org/xsederepo/`.
#[derive(Debug, Clone)]
pub struct Repository {
    /// Short id used in `.repo` section headers (e.g. `xsede`).
    pub id: String,
    /// Human-readable name.
    pub name: String,
    /// Base URL of the repo.
    pub baseurl: String,
    /// Disabled repos are invisible to the solver.
    pub enabled: bool,
    /// Priority for `yum-plugin-priorities` (1 = highest; yum default 99).
    pub priority: u32,
    /// Whether GPG signature checking is on.
    pub gpgcheck: bool,
    /// Metadata revision, bumped on every package change (repomd revision).
    pub revision: u64,
    store: Arc<Store>,
}

/// The package list plus its lazily built index. Mutation goes through
/// [`Repository::packages_mut`], which unshares the store and drops the
/// index.
#[derive(Debug, Default)]
struct Store {
    packages: Vec<Package>,
    index: OnceLock<RepoIndex>,
}

impl Clone for Store {
    /// A copy for mutation: the packages, without the index.
    fn clone(&self) -> Self {
        Store {
            packages: self.packages.clone(),
            index: OnceLock::new(),
        }
    }
}

/// Name → positions in the package list, ascending and unique, so a
/// lookup visits packages in list order.
type Positions = HashMap<String, Vec<u32>>;

#[derive(Debug, Default)]
struct RepoIndex {
    /// Package name.
    by_name: Positions,
    /// Every name a package can satisfy a dependency through: its own
    /// name, its Provides names and its file paths.
    by_capability: Positions,
    /// Names the package's Obsoletes target.
    by_obsoleted: Positions,
}

impl RepoIndex {
    fn build(packages: &[Package]) -> RepoIndex {
        fn add(map: &mut Positions, key: &str, pos: u32) {
            match map.get_mut(key) {
                Some(list) if list.last() == Some(&pos) => {}
                Some(list) => list.push(pos),
                None => {
                    map.insert(key.to_string(), vec![pos]);
                }
            }
        }
        let mut index = RepoIndex::default();
        for (pos, p) in packages.iter().enumerate() {
            let pos = u32::try_from(pos).expect("repository holds under 2^32 packages");
            add(&mut index.by_name, p.name(), pos);
            add(&mut index.by_capability, p.name(), pos);
            for prov in &p.provides {
                add(&mut index.by_capability, &prov.name, pos);
            }
            for f in &p.files {
                add(&mut index.by_capability, f, pos);
            }
            for o in &p.obsoletes {
                add(&mut index.by_obsoleted, &o.name, pos);
            }
        }
        index
    }
}

impl Repository {
    pub fn new(id: impl Into<String>, name: impl Into<String>) -> Self {
        let id = id.into();
        Repository {
            baseurl: format!("http://cb-repo.iu.xsede.org/{id}/"),
            id,
            name: name.into(),
            enabled: true,
            priority: 99,
            gpgcheck: true,
            revision: 0,
            store: Arc::default(),
        }
    }

    /// Builder-style priority setter (the README for the XSEDE repo tells
    /// admins to install `yum-plugin-priorities` and set one).
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_baseurl(mut self, url: impl Into<String>) -> Self {
        self.baseurl = url.into();
        self
    }

    pub fn disabled(mut self) -> Self {
        self.enabled = false;
        self
    }

    /// The package list for mutation: unshared from other clones
    /// (copy-on-write) and with the index dropped, to be rebuilt on the
    /// next lookup.
    fn packages_mut(&mut self) -> &mut Vec<Package> {
        let store = Arc::make_mut(&mut self.store);
        store.index = OnceLock::new();
        &mut store.packages
    }

    /// Add one package (createrepo + upload, in real life).
    pub fn add_package(&mut self, p: Package) {
        self.revision += 1;
        self.packages_mut().push(p);
    }

    /// Add many packages.
    pub fn add_packages(&mut self, ps: impl IntoIterator<Item = Package>) {
        for p in ps {
            self.add_package(p);
        }
    }

    /// Remove every package with this name; returns how many were dropped.
    pub fn remove_package(&mut self, name: &str) -> usize {
        // a no-op removal neither unshares the store nor bumps revision
        if !self.packages().iter().any(|p| p.name() == name) {
            return 0;
        }
        let packages = self.packages_mut();
        let before = packages.len();
        packages.retain(|p| p.name() != name);
        let dropped = before - packages.len();
        self.revision += 1;
        dropped
    }

    pub fn package_count(&self) -> usize {
        self.store.packages.len()
    }

    pub fn packages(&self) -> &[Package] {
        &self.store.packages
    }

    fn index(&self) -> &RepoIndex {
        self.store
            .index
            .get_or_init(|| RepoIndex::build(&self.store.packages))
    }

    fn at<'s>(&'s self, positions: Option<&'s Vec<u32>>) -> impl Iterator<Item = &'s Package> {
        positions
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(|&pos| &self.store.packages[pos as usize])
    }

    /// Packages named `name`, in list order.
    pub(crate) fn with_name<'s>(&'s self, name: &str) -> impl Iterator<Item = &'s Package> {
        self.at(self.index().by_name.get(name))
    }

    /// Packages that carry `name` as their name, a Provides or a file —
    /// every package that can satisfy a dependency on `name`, in list
    /// order. Callers confirm each with [`Package::satisfies`].
    pub(crate) fn with_capability<'s>(&'s self, name: &str) -> impl Iterator<Item = &'s Package> {
        self.at(self.index().by_capability.get(name))
    }

    /// Packages with an Obsoletes on `name`, in list order. Callers
    /// confirm each with [`Package::obsoletes_package`].
    pub(crate) fn obsoleting<'s>(&'s self, name: &str) -> impl Iterator<Item = &'s Package> {
        self.at(self.index().by_obsoleted.get(name))
    }

    /// All candidates with the given name.
    pub fn by_name(&self, name: &str) -> Vec<&Package> {
        self.with_name(name).collect()
    }

    /// Newest candidate with the given name.
    pub fn newest(&self, name: &str) -> Option<&Package> {
        self.with_name(name)
            .max_by(|a, b| a.nevra.evr.cmp(&b.nevra.evr))
    }

    /// Specific NEVR lookup.
    pub fn find(&self, name: &str, evr: &Evr) -> Option<&Package> {
        self.with_name(name).find(|p| p.evr() == evr)
    }

    /// Candidates satisfying a dependency (capability or file).
    pub fn whatprovides(&self, req: &Dependency) -> Vec<&Package> {
        self.with_capability(&req.name)
            .filter(|p| p.satisfies(req))
            .collect()
    }

    /// Generate repo metadata (the `repodata/` a `createrepo` run makes).
    pub fn metadata(&self) -> RepoMetadata {
        RepoMetadata::generate(self)
    }

    /// Total payload size in bytes.
    pub fn total_size_bytes(&self) -> u64 {
        self.packages().iter().map(|p| p.size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_rpm::PackageBuilder;

    fn repo() -> Repository {
        let mut r = Repository::new("xsede", "XSEDE National Integration Toolkit");
        r.add_package(PackageBuilder::new("R", "3.0.2", "1.el6").build());
        r.add_package(PackageBuilder::new("R", "3.1.0", "1.el6").build());
        r.add_package(
            PackageBuilder::new("openmpi", "1.6.5", "1.el6")
                .provides_versioned("mpi")
                .build(),
        );
        r
    }

    #[test]
    fn defaults() {
        let r = Repository::new("xsede", "x");
        assert!(r.enabled);
        assert_eq!(r.priority, 99);
        assert!(r.baseurl.contains("xsede"));
        assert_eq!(r.package_count(), 0);
    }

    #[test]
    fn newest_picks_highest() {
        let r = repo();
        assert_eq!(r.newest("R").unwrap().evr().version, "3.1.0");
        assert!(r.newest("nope").is_none());
    }

    #[test]
    fn whatprovides_capability() {
        let r = repo();
        let hits = r.whatprovides(&Dependency::parse("mpi >= 1.6"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name(), "openmpi");
    }

    #[test]
    fn revision_bumps_on_change() {
        let mut r = repo();
        let rev = r.revision;
        r.add_package(PackageBuilder::new("hdf5", "1.8.9", "1").build());
        assert_eq!(r.revision, rev + 1);
        assert_eq!(r.remove_package("hdf5"), 1);
        assert_eq!(r.revision, rev + 2);
        assert_eq!(r.remove_package("hdf5"), 0);
        assert_eq!(r.revision, rev + 2, "no-op removal must not bump revision");
    }

    #[test]
    fn clones_share_the_store_until_one_mutates() {
        let a = repo();
        let mut b = a.clone();
        assert!(std::ptr::eq(a.packages(), b.packages()));
        // build the shared index, then mutate: the clone unshares and
        // its next lookup sees the new package
        assert_eq!(b.whatprovides(&Dependency::parse("mpi")).len(), 1);
        b.add_package(
            PackageBuilder::new("mpich2", "1.4.1", "1")
                .provides_versioned("mpi")
                .build(),
        );
        assert!(!std::ptr::eq(a.packages(), b.packages()));
        assert_eq!(b.whatprovides(&Dependency::parse("mpi")).len(), 2);
        assert_eq!(a.whatprovides(&Dependency::parse("mpi")).len(), 1);
        assert_eq!(b.remove_package("R"), 2);
        assert!(b.by_name("R").is_empty());
        assert_eq!(a.by_name("R").len(), 2);
    }

    #[test]
    fn find_exact() {
        let r = repo();
        assert!(r.find("R", &Evr::parse("3.0.2-1.el6")).is_some());
        assert!(r.find("R", &Evr::parse("9.9-1")).is_none());
    }
}
