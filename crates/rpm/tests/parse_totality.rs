//! The dependency and EVR parsers are total: any string parses to some
//! value without panicking, and well-formed dependencies survive a
//! `Display` → `parse` round trip field for field.

use proptest::prelude::*;
use xcbc_rpm::{DepFlag, Dependency, Evr};

const FLAGS: &[DepFlag] = &[
    DepFlag::Eq,
    DepFlag::Lt,
    DepFlag::Le,
    DepFlag::Gt,
    DepFlag::Ge,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..48)) {
        let s = String::from_utf8_lossy(&bytes);
        let d = Dependency::parse(&s);
        let _ = d.to_string();
        let _ = d.is_file_dep();
        let e = Evr::parse(&s);
        let _ = (e.to_string(), e.vr());
    }

    #[test]
    fn parsers_never_panic_on_dependency_shaped_noise(s in "[a-z0-9 :=<>!.~^_/-]{0,24}") {
        let d = Dependency::parse(&s);
        prop_assert!(!d.name.chars().any(char::is_whitespace), "name {:?} from {:?}", d.name, s);
        prop_assert_eq!(d.evr.is_some(), d.flag != DepFlag::Any);
        let _ = d.satisfies(&d);
        let e = Evr::parse(&s);
        prop_assert_eq!(e.cmp(&e), std::cmp::Ordering::Equal);
    }

    #[test]
    fn well_formed_dependencies_round_trip(
        name in "[a-z/][a-z0-9_+./-]{0,10}",
        flag in 0usize..6,
        epoch in 0u32..3,
        version in "[0-9][0-9a-z.~^_+]{0,6}",
        release in "[0-9a-z.~^_+]{0,5}",
    ) {
        let dep = match FLAGS.get(flag) {
            Some(&flag) => Dependency::versioned(name, flag, Evr::new(epoch, version, release)),
            None => Dependency::any(name),
        };
        let back = Dependency::parse(&dep.to_string());
        prop_assert_eq!(&back.name, &dep.name);
        prop_assert_eq!(back.flag, dep.flag);
        let fields = |e: &Option<Evr>| e.as_ref().map(|e| (e.epoch, e.version.clone(), e.release.clone()));
        prop_assert_eq!(fields(&back.evr), fields(&dep.evr), "{}", dep);
    }
}
