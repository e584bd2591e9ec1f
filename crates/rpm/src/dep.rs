//! Versioned dependency specifications (RPM "dependency sets").
//!
//! A [`Dependency`] is a name plus an optional comparison against an
//! [`Evr`], e.g. `openmpi >= 1.6` or `mpi`. Provides, Requires, Conflicts
//! and Obsoletes headers all use this shape; satisfaction between a
//! Provides and a Requires follows RPM's range-overlap rule
//! (`rpmdsCompare`).

use crate::evr::Evr;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// The comparison operator attached to a dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepFlag {
    /// Unversioned: any version satisfies.
    Any,
    /// `= EVR`
    Eq,
    /// `< EVR`
    Lt,
    /// `<= EVR`
    Le,
    /// `> EVR`
    Gt,
    /// `>= EVR`
    Ge,
}

impl DepFlag {
    /// True if the flag admits versions below the anchor.
    fn opens_down(self) -> bool {
        matches!(self, DepFlag::Lt | DepFlag::Le | DepFlag::Any)
    }
    /// True if the flag admits versions above the anchor.
    fn opens_up(self) -> bool {
        matches!(self, DepFlag::Gt | DepFlag::Ge | DepFlag::Any)
    }
    /// True if the flag admits the anchor itself.
    fn closed(self) -> bool {
        matches!(self, DepFlag::Eq | DepFlag::Le | DepFlag::Ge | DepFlag::Any)
    }

    pub fn symbol(self) -> &'static str {
        match self {
            DepFlag::Any => "",
            DepFlag::Eq => "=",
            DepFlag::Lt => "<",
            DepFlag::Le => "<=",
            DepFlag::Gt => ">",
            DepFlag::Ge => ">=",
        }
    }
}

/// A single dependency: `name [op evr]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dependency {
    pub name: String,
    pub flag: DepFlag,
    pub evr: Option<Evr>,
}

impl Dependency {
    /// Unversioned dependency on `name` (also used for file deps such as
    /// `/usr/bin/perl`).
    pub fn any(name: impl Into<String>) -> Self {
        Dependency {
            name: name.into(),
            flag: DepFlag::Any,
            evr: None,
        }
    }

    /// Versioned dependency.
    pub fn versioned(name: impl Into<String>, flag: DepFlag, evr: impl Into<Evr>) -> Self {
        let evr = evr.into();
        debug_assert!(flag != DepFlag::Any, "versioned() needs a real comparison");
        Dependency {
            name: name.into(),
            flag,
            evr: Some(evr),
        }
    }

    /// Parse `"name"`, `"name = 1.0-1"`, `"name >= 2:3.4"` etc.
    ///
    /// ```
    /// use xcbc_rpm::{Dependency, DepFlag};
    /// let d = Dependency::parse("openmpi >= 1.6.5");
    /// assert_eq!(d.name, "openmpi");
    /// assert_eq!(d.flag, DepFlag::Ge);
    /// ```
    pub fn parse(s: &str) -> Self {
        let mut parts = s.split_whitespace();
        let name = parts.next().unwrap_or("").to_string();
        let op = parts.next();
        let ver = parts.next();
        match (op, ver) {
            (Some(op), Some(ver)) => {
                let flag = match op {
                    "=" | "==" => DepFlag::Eq,
                    "<" => DepFlag::Lt,
                    "<=" => DepFlag::Le,
                    ">" => DepFlag::Gt,
                    ">=" => DepFlag::Ge,
                    _ => DepFlag::Any,
                };
                if flag == DepFlag::Any {
                    Dependency::any(name)
                } else {
                    Dependency::versioned(name, flag, Evr::parse(ver))
                }
            }
            _ => Dependency::any(name),
        }
    }

    /// Is this a file dependency (`/usr/bin/env` style)?
    pub fn is_file_dep(&self) -> bool {
        self.name.starts_with('/')
    }

    /// Range-overlap test between a Provides (`self`) and a Requires
    /// (`req`), per RPM semantics: names must match exactly, and the two
    /// version ranges must intersect. An unversioned side always overlaps.
    ///
    /// ```
    /// use xcbc_rpm::Dependency;
    /// let provides = Dependency::parse("mpi = 1.6.5");
    /// assert!(provides.satisfies(&Dependency::parse("mpi >= 1.6")));
    /// assert!(!provides.satisfies(&Dependency::parse("mpi > 1.6.5")));
    /// assert!(provides.satisfies(&Dependency::parse("mpi")));
    /// ```
    pub fn satisfies(&self, req: &Dependency) -> bool {
        if self.name != req.name {
            return false;
        }
        ranges_overlap(self.flag, self.evr.as_ref(), req.flag, req.evr.as_ref())
    }
}

/// Do the version ranges `(fa, ea)` and `(fb, eb)` intersect?
pub(crate) fn ranges_overlap(fa: DepFlag, ea: Option<&Evr>, fb: DepFlag, eb: Option<&Evr>) -> bool {
    let (ea, eb) = match (ea, eb) {
        (None, _) | (_, None) => return true,
        (Some(a), Some(b)) => (a, b),
    };
    if fa == DepFlag::Any || fb == DepFlag::Any {
        return true;
    }
    match ea.cmp(eb) {
        Ordering::Equal => {
            // Same anchor: overlap iff both include the anchor, or both open
            // the same direction.
            (fa.closed() && fb.closed())
                || (fa.opens_up() && fb.opens_up())
                || (fa.opens_down() && fb.opens_down())
        }
        Ordering::Less => {
            // a anchored below b: need a to open upward or b to open downward.
            fa.opens_up() || fb.opens_down()
        }
        Ordering::Greater => fa.opens_down() || fb.opens_up(),
    }
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.evr {
            Some(evr) => write!(f, "{} {} {}", self.name, self.flag.symbol(), evr),
            None => write!(f, "{}", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat(p: &str, r: &str) -> bool {
        Dependency::parse(p).satisfies(&Dependency::parse(r))
    }

    #[test]
    fn name_mismatch_never_satisfies() {
        assert!(!sat("openmpi = 1.6.5", "mpich2 >= 1.0"));
    }

    #[test]
    fn unversioned_sides() {
        assert!(sat("mpi", "mpi"));
        assert!(sat("mpi = 1.0", "mpi"));
        assert!(sat("mpi", "mpi >= 99"));
    }

    #[test]
    fn eq_vs_ranges() {
        assert!(sat("mpi = 1.6.5", "mpi = 1.6.5"));
        assert!(!sat("mpi = 1.6.5", "mpi = 1.6.4"));
        assert!(sat("mpi = 1.6.5", "mpi >= 1.6"));
        assert!(sat("mpi = 1.6.5", "mpi <= 1.7"));
        assert!(!sat("mpi = 1.6.5", "mpi < 1.6.5"));
        assert!(!sat("mpi = 1.6.5", "mpi > 1.6.5"));
        assert!(sat("mpi = 1.6.5", "mpi >= 1.6.5"));
    }

    #[test]
    fn open_range_pairs() {
        assert!(sat("mpi >= 1.0", "mpi >= 2.0"));
        assert!(sat("mpi <= 1.0", "mpi <= 0.5"));
        assert!(sat("mpi >= 1.0", "mpi <= 1.0"));
        assert!(!sat("mpi > 1.0", "mpi < 1.0"));
        assert!(!sat("mpi >= 2.0", "mpi <= 1.0"));
        assert!(sat("mpi > 1.0", "mpi < 2.0"));
    }

    #[test]
    fn same_anchor_half_open() {
        assert!(!sat("mpi > 1.0", "mpi = 1.0"));
        assert!(sat("mpi >= 1.0", "mpi = 1.0"));
        assert!(sat("mpi > 1.0", "mpi > 1.0"));
        assert!(sat("mpi > 1.0", "mpi >= 1.0"));
        assert!(!sat("mpi < 1.0", "mpi > 1.0"));
    }

    #[test]
    fn epochs_respected() {
        assert!(sat("mpi = 1:0.5", "mpi >= 1.0"));
        assert!(!sat("mpi = 0.5", "mpi >= 1:0.1"));
    }

    #[test]
    fn parse_forms() {
        assert_eq!(Dependency::parse("gcc").flag, DepFlag::Any);
        assert_eq!(Dependency::parse("gcc == 4.4.7").flag, DepFlag::Eq);
        assert!(Dependency::parse("/usr/bin/perl").is_file_dep());
        assert_eq!(
            Dependency::parse("hdf5 <= 1.8.9").to_string(),
            "hdf5 <= 1.8.9"
        );
    }

    #[test]
    fn satisfies_is_symmetric_in_overlap() {
        // Range overlap is symmetric when the names match.
        let cases = [
            ("mpi = 1.0", "mpi >= 0.5"),
            ("mpi > 1.0", "mpi < 2.0"),
            ("mpi >= 3.0", "mpi <= 2.0"),
            ("mpi < 1.0", "mpi <= 1.0"),
        ];
        for (a, b) in cases {
            assert_eq!(sat(a, b), sat(b, a), "overlap({a},{b}) not symmetric");
        }
    }
}
