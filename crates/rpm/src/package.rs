//! The [`Package`] type: a binary RPM's header as the rest of the stack
//! sees it — NEVRA identity, dependency headers, file list and metadata.

use crate::arch::Arch;
use crate::dep::{ranges_overlap, DepFlag, Dependency};
use crate::evr::Evr;
use crate::scriptlet::Scriptlet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Name-Epoch-Version-Release-Architecture: the full identity of a package.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Nevra {
    pub name: String,
    pub evr: Evr,
    pub arch: Arch,
}

impl Nevra {
    pub fn new(name: impl Into<String>, evr: impl Into<Evr>, arch: Arch) -> Self {
        Nevra {
            name: name.into(),
            evr: evr.into(),
            arch,
        }
    }

    /// The `name-version-release.arch` filename stem, as yum prints it.
    pub fn filename(&self) -> String {
        format!("{}-{}.{}.rpm", self.name, self.evr.vr(), self.arch)
    }
}

impl fmt::Display for Nevra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}.{}", self.name, self.evr, self.arch)
    }
}

/// RPM "Group:" classification, trimmed to the groups XCBC actually uses.
/// Table 2 of the paper partitions the XSEDE run-alike set into exactly
/// these categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PackageGroup {
    /// Base OS / cluster basics (CentOS, modules, make tools).
    Basics,
    /// Compilers, libraries, and programming (Table 2 row 1).
    CompilersLibraries,
    /// Scientific applications (Table 2 row 2).
    ScientificApplications,
    /// Miscellaneous supporting tools (Table 2 row 3).
    MiscellaneousTools,
    /// Scheduler and resource manager (Table 2 row 4).
    SchedulerResourceManager,
    /// XSEDE integration tools — Globus, Genesis II, GFFS (Table 2 row 5).
    XsedeTools,
    /// Security (the Rocks area51 roll).
    Security,
    /// Monitoring (ganglia).
    Monitoring,
    /// Anything else.
    Other,
}

impl PackageGroup {
    pub fn label(self) -> &'static str {
        match self {
            PackageGroup::Basics => "Basics",
            PackageGroup::CompilersLibraries => "Compilers, libraries, and programming",
            PackageGroup::ScientificApplications => "Scientific Applications",
            PackageGroup::MiscellaneousTools => "Miscellaneous Tools",
            PackageGroup::SchedulerResourceManager => "Scheduler and Resource Manager",
            PackageGroup::XsedeTools => "XSEDE Tools",
            PackageGroup::Security => "Security",
            PackageGroup::Monitoring => "Monitoring",
            PackageGroup::Other => "Other",
        }
    }
}

/// A binary package: identity plus everything the solver and the
/// transaction machinery need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Package {
    pub nevra: Nevra,
    pub summary: String,
    pub license: String,
    pub group: PackageGroup,
    /// Installed size in bytes (drives disk-space accounting in kickstart).
    pub size_bytes: u64,
    pub provides: Vec<Dependency>,
    pub requires: Vec<Dependency>,
    pub conflicts: Vec<Dependency>,
    pub obsoletes: Vec<Dependency>,
    /// Paths owned by this package (also serve as file-provides).
    pub files: Vec<String>,
    pub scriptlets: Vec<Scriptlet>,
    /// Seconds since epoch the package was built (orders update releases).
    pub buildtime: u64,
}

impl Package {
    pub fn name(&self) -> &str {
        &self.nevra.name
    }

    pub fn evr(&self) -> &Evr {
        &self.nevra.evr
    }

    pub fn arch(&self) -> Arch {
        self.nevra.arch
    }

    /// Every Provides of this package, including the implicit
    /// `name = EVR` self-provide RPM adds automatically.
    pub fn all_provides(&self) -> Vec<Dependency> {
        let mut out = Vec::with_capacity(self.provides.len() + 1);
        out.push(Dependency::versioned(
            self.nevra.name.clone(),
            DepFlag::Eq,
            self.nevra.evr.clone(),
        ));
        out.extend(self.provides.iter().cloned());
        out
    }

    /// Does this package satisfy `req`, via self-provide, explicit
    /// Provides, or file ownership?
    ///
    /// Allocation-free: the implicit `name = EVR` self-provide is matched
    /// in place (same name, then RPM's range overlap against `= EVR`) and
    /// the explicit Provides and files are read by reference, so the
    /// answer always equals matching `req` against
    /// [`all_provides`](Self::all_provides) without building that `Vec`.
    pub fn satisfies(&self, req: &Dependency) -> bool {
        if req.is_file_dep() {
            return self.files.iter().any(|f| f == &req.name);
        }
        self.self_provide_overlaps(req) || self.provides.iter().any(|p| p.satisfies(req))
    }

    /// Does this package obsolete the installed package `other`?
    /// (Obsoletes match against the *name* of the target, per RPM.)
    pub fn obsoletes_package(&self, other: &Package) -> bool {
        self.obsoletes
            .iter()
            .any(|o| other.self_provide_overlaps(o))
    }

    /// Does the implicit `name = EVR` self-provide overlap `dep`?
    fn self_provide_overlaps(&self, dep: &Dependency) -> bool {
        self.nevra.name == dep.name
            && ranges_overlap(
                DepFlag::Eq,
                Some(&self.nevra.evr),
                dep.flag,
                dep.evr.as_ref(),
            )
    }

    /// Is this package a strictly newer build of the same (name, arch)?
    pub fn is_upgrade_of(&self, other: &Package) -> bool {
        self.nevra.name == other.nevra.name
            && self.nevra.arch == other.nevra.arch
            && self.nevra.evr > other.nevra.evr
    }
}

impl fmt::Display for Package {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.nevra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PackageBuilder;

    #[test]
    fn self_provide_is_automatic() {
        let p = PackageBuilder::new("gcc", "4.4.7", "17.el6").build();
        assert!(p.satisfies(&Dependency::parse("gcc")));
        assert!(p.satisfies(&Dependency::parse("gcc = 4.4.7-17.el6")));
        assert!(p.satisfies(&Dependency::parse("gcc >= 4.4")));
        assert!(!p.satisfies(&Dependency::parse("gcc >= 4.5")));
    }

    #[test]
    fn file_provides() {
        let p = PackageBuilder::new("perl", "5.10.1", "136.el6")
            .file("/usr/bin/perl")
            .build();
        assert!(p.satisfies(&Dependency::parse("/usr/bin/perl")));
        assert!(!p.satisfies(&Dependency::parse("/usr/bin/python")));
    }

    #[test]
    fn explicit_provides() {
        let p = PackageBuilder::new("openmpi", "1.6.5", "1")
            .provides(Dependency::versioned(
                "mpi",
                DepFlag::Eq,
                Evr::parse("1.6.5"),
            ))
            .build();
        assert!(p.satisfies(&Dependency::parse("mpi >= 1.5")));
        assert!(!p.satisfies(&Dependency::parse("mpi >= 1.7")));
    }

    #[test]
    fn obsoletes_by_name_and_range() {
        let newer = PackageBuilder::new("torque", "4.2.10", "1")
            .obsoletes(Dependency::parse("torque-old"))
            .obsoletes(Dependency::parse("pbs < 3.0"))
            .build();
        let old_named = PackageBuilder::new("torque-old", "2.5.13", "1").build();
        let pbs_old = PackageBuilder::new("pbs", "2.3.16", "1").build();
        let pbs_new = PackageBuilder::new("pbs", "3.1", "1").build();
        assert!(newer.obsoletes_package(&old_named));
        assert!(newer.obsoletes_package(&pbs_old));
        assert!(!newer.obsoletes_package(&pbs_new));
    }

    #[test]
    fn upgrade_relation() {
        let old = PackageBuilder::new("R", "3.0.2", "1.el6").build();
        let new = PackageBuilder::new("R", "3.1.0", "1.el6").build();
        assert!(new.is_upgrade_of(&old));
        assert!(!old.is_upgrade_of(&new));
        assert!(!new.is_upgrade_of(&new));
    }

    #[test]
    fn nevra_filename() {
        let p = PackageBuilder::new("gromacs", "4.6.5", "2.el6").build();
        assert_eq!(p.nevra.filename(), "gromacs-4.6.5-2.el6.x86_64.rpm");
    }
}
