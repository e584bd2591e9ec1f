//! XNIT — the XSEDE National Integration Toolkit Yum repository.
//!
//! §1: "XNIT includes all of the software included in the standard XCBC
//! build, and more ... XNIT and the Yum repository make it easy for
//! campus cluster administrators to do one-time installations of any
//! particular software capability they want."
//!
//! §3 gives the two setup methods this module implements:
//! 1. "download and install the XSEDE repo RPM from the XSEDE Yum
//!    repository", or
//! 2. "install the yum-plugin-priorities package, then create the file
//!    /etc/yum.repos.d/xsede.repo with the lines specified in the ...
//!    README".

use crate::catalog::xcbc_catalog;
use std::sync::OnceLock;
use xcbc_rpm::{PackageBuilder, PackageGroup, RpmDb, TransactionSet};
use xcbc_yum::{parse_repo_file, Repository, Yum, XSEDE_REPO_FILE};

/// Extra software XNIT carries beyond the basic XCBC build ("software
/// not included in the basic XCBC build – this will be increased over
/// time in response to community requests").
pub fn xnit_extras() -> Vec<xcbc_rpm::Package> {
    vec![
        PackageBuilder::new("paraview", "4.1.0", "1.el6")
            .group(PackageGroup::ScientificApplications)
            .summary("Parallel visualization (community request)")
            .size_mb(180)
            .file("/usr/bin/paraview")
            .build(),
        PackageBuilder::new("visit", "2.7.2", "1.el6")
            .group(PackageGroup::ScientificApplications)
            .summary("VisIt visualization (community request)")
            .size_mb(160)
            .file("/usr/bin/visit")
            .build(),
        PackageBuilder::new("wrf", "3.5.1", "1.el6")
            .group(PackageGroup::ScientificApplications)
            .summary("Weather Research and Forecasting model (community request)")
            .requires_simple("netcdf")
            .requires_simple("openmpi")
            .size_mb(140)
            .file("/usr/bin/wrf.exe")
            .build(),
        PackageBuilder::new("amber-tools", "14", "1.el6")
            .group(PackageGroup::ScientificApplications)
            .summary("AmberTools MD utilities (community request)")
            .size_mb(120)
            .file("/usr/bin/tleap")
            .build(),
    ]
}

/// The `xsede-release` repo RPM (setup method 1): installing it drops the
/// `.repo` file and pulls in `yum-plugin-priorities`.
pub fn xsede_release_rpm() -> xcbc_rpm::Package {
    PackageBuilder::new("xsede-release", "1", "3.el6")
        .group(PackageGroup::Basics)
        .summary("XSEDE repository configuration")
        .requires_simple("yum-plugin-priorities")
        .file("/etc/yum.repos.d/xsede.repo")
        .build()
}

/// The priorities plugin package itself.
pub fn yum_plugin_priorities() -> xcbc_rpm::Package {
    PackageBuilder::new("yum-plugin-priorities", "1.1.30", "30.el6")
        .group(PackageGroup::Basics)
        .summary("Yum priorities plugin")
        .file("/usr/lib/yum-plugins/priorities.py")
        .build()
}

/// The XNIT repository: the full XCBC catalog plus the extras, plus the
/// repo-RPM bootstrap packages, at the README's priority (50).
///
/// Built once per process; each call returns an O(1) clone sharing its
/// package store and lookup index (see [`Repository`]), so overlay
/// nodes and service tenants do not rebuild the catalog. Mutating a
/// clone copies the store and leaves every other clone unchanged.
pub fn xnit_repository() -> Repository {
    static XNIT: OnceLock<Repository> = OnceLock::new();
    XNIT.get_or_init(|| {
        let mut repo = Repository::new("xsede", "XSEDE National Integration Toolkit")
            .with_baseurl("http://cb-repo.iu.xsede.org/xsederepo/")
            .with_priority(50);
        repo.gpgcheck = false; // matches the published repo file
        repo.add_packages(xcbc_catalog());
        repo.add_packages(xnit_extras());
        repo.add_package(xsede_release_rpm());
        repo.add_package(yum_plugin_priorities());
        repo
    })
    .clone()
}

/// How a site enables XNIT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XnitSetupMethod {
    /// Install the `xsede-release` RPM.
    RepoRpm,
    /// Install `yum-plugin-priorities`, then hand-write
    /// `/etc/yum.repos.d/xsede.repo` per the README.
    ManualRepoFile,
}

impl XnitSetupMethod {
    /// Steps an administrator performs for this method.
    pub fn steps(&self) -> Vec<&'static str> {
        match self {
            XnitSetupMethod::RepoRpm => vec![
                "download xsede-release RPM from cb-repo.iu.xsede.org",
                "rpm -i xsede-release (pulls in yum-plugin-priorities)",
            ],
            XnitSetupMethod::ManualRepoFile => vec![
                "yum install yum-plugin-priorities",
                "create /etc/yum.repos.d/xsede.repo per readme.xsederepo",
            ],
        }
    }
}

/// Enable XNIT on an existing host: performs the chosen setup method
/// against the host's RPM database and registers the repository with its
/// yum. Returns the repository id.
pub fn enable_xnit(
    yum: &mut Yum,
    db: &mut RpmDb,
    method: XnitSetupMethod,
) -> Result<String, xcbc_rpm::TransactionError> {
    match method {
        XnitSetupMethod::RepoRpm => {
            let mut tx = TransactionSet::new();
            if !db.is_installed("yum-plugin-priorities") {
                tx.add_install(yum_plugin_priorities());
            }
            if !db.is_installed("xsede-release") {
                tx.add_install(xsede_release_rpm());
            }
            if !tx.is_empty() {
                tx.run(db)?;
            }
        }
        XnitSetupMethod::ManualRepoFile => {
            let mut tx = TransactionSet::new();
            if !db.is_installed("yum-plugin-priorities") {
                tx.add_install(yum_plugin_priorities());
                tx.run(db)?;
            }
            // the admin writes the file by hand; we validate it parses
            let parsed = parse_repo_file(XSEDE_REPO_FILE).expect("README repo file is valid");
            debug_assert_eq!(parsed[0].id, "xsede");
        }
    }
    yum.add_repository(xnit_repository());
    Ok("xsede".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_yum::YumConfig;

    #[test]
    fn repository_superset_of_xcbc() {
        let repo = xnit_repository();
        // "XNIT includes all of the software included in the standard
        // XCBC build, and more"
        let catalog_count = xcbc_catalog().len();
        assert!(repo.package_count() > catalog_count);
        assert!(repo.newest("paraview").is_some(), "extras present");
        assert!(repo.newest("gromacs").is_some(), "XCBC software present");
        assert_eq!(repo.priority, 50);
        assert!(repo.baseurl.contains("cb-repo.iu.xsede.org"));
    }

    #[test]
    fn mutating_a_clone_leaves_the_shared_catalog_alone() {
        let pristine = xnit_repository();
        let other = xnit_repository();
        assert!(
            std::ptr::eq(pristine.packages(), other.packages()),
            "clones share one package store"
        );
        let cfg = YumConfig::default();
        let db = RpmDb::new();
        let gromacs = xcbc_yum::SolveRequest::install(["gromacs"]);
        let solve = |repos: &[Repository]| {
            xcbc_yum::Solver::new(repos, &cfg)
                .resolve(&db, &gromacs)
                .map(|s| s.len())
                .map_err(|e| e.to_string())
        };
        let closure = solve(std::slice::from_ref(&pristine)).unwrap();

        let mut mutated = xnit_repository();
        mutated.add_package(PackageBuilder::new("cp2k", "2.5.1", "1.el6").build());
        assert_eq!(mutated.remove_package("openmpi"), 1);
        // the mutated clone's solver sees both changes: its index was
        // rebuilt, not inherited from the shared store
        let repos = [mutated];
        let solver = xcbc_yum::Solver::new(&repos, &cfg);
        assert!(solver.best_by_name("cp2k").is_some());
        assert!(solver.best_by_name("openmpi").is_none());
        assert!(solve(&repos).unwrap_err().contains("openmpi"));

        // neither a fresh clone nor an older one changed
        for repo in [xnit_repository(), pristine, other] {
            assert!(repo.newest("cp2k").is_none());
            assert!(repo.newest("openmpi").is_some());
            assert_eq!(solve(&[repo]), Ok(closure));
        }
    }

    #[test]
    fn both_setup_methods_enable_the_repo() {
        for method in [XnitSetupMethod::RepoRpm, XnitSetupMethod::ManualRepoFile] {
            let mut yum = Yum::new(YumConfig::default());
            let mut db = RpmDb::new();
            let id = enable_xnit(&mut yum, &mut db, method).unwrap();
            assert_eq!(id, "xsede");
            assert!(yum.repository("xsede").is_some());
            assert!(db.is_installed("yum-plugin-priorities"), "{method:?}");
        }
    }

    #[test]
    fn repo_rpm_method_installs_release_package() {
        let mut yum = Yum::new(YumConfig::default());
        let mut db = RpmDb::new();
        enable_xnit(&mut yum, &mut db, XnitSetupMethod::RepoRpm).unwrap();
        assert!(db.is_installed("xsede-release"));
        assert!(
            db.whatprovides(&xcbc_rpm::Dependency::parse("/etc/yum.repos.d/xsede.repo"))
                .len()
                == 1
        );
    }

    #[test]
    fn manual_method_does_not_install_release_package() {
        let mut yum = Yum::new(YumConfig::default());
        let mut db = RpmDb::new();
        enable_xnit(&mut yum, &mut db, XnitSetupMethod::ManualRepoFile).unwrap();
        assert!(!db.is_installed("xsede-release"));
    }

    #[test]
    fn one_time_install_of_a_capability() {
        // "one-time installations of any particular software capability
        // they want within the suite of the XNIT set"
        let mut yum = Yum::new(YumConfig::default());
        let mut db = RpmDb::new();
        enable_xnit(&mut yum, &mut db, XnitSetupMethod::RepoRpm).unwrap();
        yum.install(&mut db, &["gromacs"]).unwrap();
        assert!(db.is_installed("gromacs"));
        assert!(
            db.is_installed("openmpi"),
            "dependencies resolved from XNIT"
        );
        assert!(db.verify().is_empty());
    }

    #[test]
    fn setup_steps_documented() {
        assert_eq!(XnitSetupMethod::RepoRpm.steps().len(), 2);
        assert!(XnitSetupMethod::ManualRepoFile.steps()[1].contains("xsede.repo"));
    }

    #[test]
    fn extras_install_against_catalog_deps() {
        let mut yum = Yum::new(YumConfig::default());
        let mut db = RpmDb::new();
        enable_xnit(&mut yum, &mut db, XnitSetupMethod::RepoRpm).unwrap();
        yum.install(&mut db, &["wrf"]).unwrap();
        assert!(
            db.is_installed("netcdf"),
            "wrf pulls netcdf from the catalog"
        );
    }
}
