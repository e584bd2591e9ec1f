//! Dependency-solver scaling: install-closure resolution time vs
//! catalog size (the paper's `yum install` path), the walk alone on a
//! 10⁴-package catalog, the real XNIT catalog resolution, and the
//! `xcbcd` cache-miss path (a fresh solver per tenant request).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xcbc_core::deploy::limulus_factory_image;
use xcbc_core::xnit::{enable_xnit, XnitSetupMethod};
use xcbc_rpm::{PackageBuilder, RpmDb};
use xcbc_yum::{Repository, SolveRequest, Solver, Yum, YumConfig};

/// Synthetic catalog: n packages, each requiring up to 3 earlier ones.
fn synthetic_repo(n: usize) -> Repository {
    let mut repo = Repository::new("gen", "generated");
    for i in 0..n {
        let mut b = PackageBuilder::new(&format!("pkg{i}"), "1.0", "1");
        for d in 1..=3usize {
            if i >= d * 7 {
                b = b.requires_simple(&format!("pkg{}", i - d * 7));
            }
        }
        repo.add_package(b.build());
    }
    repo
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/install_closure");
    for n in [100usize, 400, 1600] {
        let repo = synthetic_repo(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut yum = Yum::new(YumConfig::default());
            yum.add_repository(repo.clone());
            b.iter(|| {
                let mut db = RpmDb::new();
                yum.install(&mut db, &[&format!("pkg{}", n - 1)]).unwrap();
                db.len()
            })
        });
    }
    group.finish();

    // `Solver::resolve` alone: the repository index is built by the
    // untimed warm-up solve, as it is once per repository load.
    c.bench_function("solver/resolve_closure/10000", |b| {
        let repos = vec![synthetic_repo(10_000)];
        let cfg = YumConfig::default();
        let solver = Solver::new(&repos, &cfg);
        let db = RpmDb::new();
        let req = SolveRequest::install(["pkg9999"]);
        solver.resolve(&db, &req).unwrap();
        b.iter(|| solver.resolve(&db, &req).unwrap().len())
    });

    // The svc miss path: a fresh solver over a fresh XNIT clone, one
    // target, against a Limulus frontend that has enabled XNIT.
    c.bench_function("solver/cold_tenant_solve", |b| {
        let mut db = limulus_factory_image();
        enable_xnit(&mut Yum::default(), &mut db, XnitSetupMethod::RepoRpm).unwrap();
        let cfg = YumConfig::default();
        let req = SolveRequest::install(["gromacs"]);
        b.iter(|| {
            let repos = vec![xcbc_core::xnit_repository()];
            Solver::new(&repos, &cfg).resolve(&db, &req).unwrap().len()
        })
    });

    c.bench_function("solver/xnit_full_gromacs", |b| {
        let mut yum = Yum::new(YumConfig::default());
        yum.add_repository(xcbc_core::xnit_repository());
        b.iter(|| {
            let mut db = RpmDb::new();
            yum.install(&mut db, &["gromacs"]).unwrap();
            db.len()
        })
    });

    c.bench_function("solver/xnit_catalog_resolve", |b| {
        let repos = vec![xcbc_core::xnit_repository()];
        let cfg = YumConfig::default();
        let solver = Solver::new(&repos, &cfg);
        let names: Vec<String> = xcbc_core::catalog::CATALOG
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        let req = SolveRequest::install(names);
        let db = RpmDb::new();
        b.iter(|| solver.resolve(&db, &req).unwrap().len())
    });

    c.bench_function("solver/xnit_everything", |b| {
        let mut yum = Yum::new(YumConfig::default());
        yum.add_repository(xcbc_core::xnit_repository());
        let names: Vec<String> = xcbc_core::catalog::CATALOG
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        b.iter(|| {
            let mut db = RpmDb::new();
            yum.install(&mut db, &refs).unwrap();
            db.len()
        })
    });
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
