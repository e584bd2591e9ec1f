//! Stable fingerprints over solver inputs.
//!
//! The fleet-scale solve cache needs a cheap, deterministic way to ask
//! "is this exactly the depsolve I already did?". A solve is a pure
//! function of three inputs: the visible repositories (contents and
//! priorities), the engine configuration (priorities plugin, host arch,
//! obsoletes), and the installed-package database. Each gets a 64-bit
//! FNV-1a fingerprint here; the cache key combines them with the
//! normalized request.
//!
//! Repository fingerprints lean on the `revision` counter a repository
//! bumps on every package add/remove (the repomd revision analog), so
//! fingerprinting is O(#repos), not O(#packages). Database fingerprints
//! walk the installed NEVRAs — `RpmDb` iterates in name order, so the
//! digest is deterministic — once per database state: the database
//! memoizes it until its next mutation.

use crate::repo::Repository;
use crate::YumConfig;
pub use xcbc_rpm::Fnv64;
use xcbc_rpm::RpmDb;

/// Fingerprint of one repository's solver-visible identity: id,
/// revision, enabledness, and priority. The revision counter stands in
/// for the package payload (it bumps on every mutation).
pub fn repo_fingerprint(repo: &Repository) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&repo.id)
        .write_u64(repo.revision)
        .write_u64(repo.enabled as u64)
        .write_u64(repo.priority as u64)
        .write_u64(repo.package_count() as u64);
    h.finish()
}

/// Combined fingerprint of a repository set plus the engine config —
/// everything [`crate::Solver::new`] consumes. Order-sensitive, like
/// the solver's own candidate collection.
pub fn repos_fingerprint(repos: &[Repository], config: &YumConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(config.plugin_priorities as u64)
        .write_u64(config.obsoletes as u64)
        .write_str(config.host_arch.as_str());
    for r in repos {
        h.write_u64(repo_fingerprint(r));
    }
    h.finish()
}

/// Fingerprint of an installed-package database: every installed NEVRA
/// in `RpmDb`'s deterministic name order, memoized by the database
/// itself ([`RpmDb::fingerprint`]).
pub fn db_fingerprint(db: &RpmDb) -> u64 {
    db.fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_rpm::PackageBuilder;

    #[test]
    fn fnv_is_order_and_boundary_sensitive() {
        let a = Fnv64::new().write_str("ab").write_str("c").finish();
        let b = Fnv64::new().write_str("a").write_str("bc").finish();
        assert_ne!(a, b);
        let c = Fnv64::new().write_u64(1).write_u64(2).finish();
        let d = Fnv64::new().write_u64(2).write_u64(1).finish();
        assert_ne!(c, d);
    }

    #[test]
    fn repo_fingerprint_tracks_revision() {
        let mut r = Repository::new("xsede", "XSEDE");
        let before = repo_fingerprint(&r);
        r.add_package(PackageBuilder::new("gromacs", "4.6.5", "1").build());
        assert_ne!(repo_fingerprint(&r), before, "mutation must change it");
    }

    #[test]
    fn repos_fingerprint_tracks_config() {
        let repos = vec![Repository::new("a", "A"), Repository::new("b", "B")];
        let cfg = YumConfig::default();
        let noplugin = YumConfig {
            plugin_priorities: false,
            ..YumConfig::default()
        };
        assert_ne!(
            repos_fingerprint(&repos, &cfg),
            repos_fingerprint(&repos, &noplugin)
        );
        assert_eq!(
            repos_fingerprint(&repos, &cfg),
            repos_fingerprint(&repos, &cfg)
        );
    }

    #[test]
    fn db_fingerprint_tracks_installs() {
        let mut db = RpmDb::new();
        let empty = db_fingerprint(&db);
        db.install(PackageBuilder::new("bash", "4.1.2", "15").build());
        let one = db_fingerprint(&db);
        assert_ne!(empty, one);
        let mut db2 = RpmDb::new();
        db2.install(PackageBuilder::new("bash", "4.1.2", "15").build());
        assert_eq!(one, db_fingerprint(&db2), "same contents, same digest");
    }
}
