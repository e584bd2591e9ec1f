//! Transaction pre-flight scaling: `TransactionSet::check` plus `order`
//! for an n-package install onto an empty database (the shape of a
//! Rocks node's bulk install). The set is a chain plus a fan, so both a
//! long dependency path and a wide ready set are exercised; time per 4×
//! of n shows whether matching stays near-linear.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xcbc_rpm::{PackageBuilder, RpmDb, TransactionSet};

/// `hub` plus n-1 packages: even ones form a chain (each requires the
/// previous even one), odd ones are fan leaves that need only the hub's
/// capability. Every package owns a file and provides a capability, and
/// the set is added in reverse so ordering has real work to do.
fn chain_plus_fan(n: usize) -> TransactionSet {
    let mut tx = TransactionSet::new();
    for i in (0..n).rev() {
        let name = format!("pkg{i}");
        let mut b = PackageBuilder::new(&name, "1.0", "1")
            .provides_versioned(&format!("cap{i}"))
            .file(format!("/usr/lib/{name}.so"));
        if i == 0 {
            b = b.provides_simple("hub");
        } else if i % 2 == 0 {
            b = b
                .requires_spec(&format!("pkg{} >= 1.0", i.saturating_sub(2)))
                .requires_simple("hub");
        } else {
            b = b.requires_simple("hub").requires_simple("/usr/lib/pkg0.so");
        }
        tx.add_install(b.build());
    }
    tx
}

fn bench_rpm(c: &mut Criterion) {
    let mut group = c.benchmark_group("rpm/tx_check_order");
    for n in [100usize, 400, 1600] {
        let tx = chain_plus_fan(n);
        let db = RpmDb::new();
        assert!(
            tx.check(&db).is_empty(),
            "chain-plus-fan set must check clean"
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| tx.check(&db).len() + tx.order().len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rpm);
criterion_main!(benches);
