//! Output checks: every check counts as attempted, every failure is
//! kept with a message naming what drifted.

/// A stored reference value: a count, or the IEEE bits of an `f64`
/// (labels ending in `_s` are virtual seconds).
pub type Reference = &'static [(&'static str, u64)];

/// Check ledger of one run.
#[derive(Debug)]
pub struct Checks {
    reference: Reference,
    attempted: u64,
    failures: Vec<String>,
    /// Every seed-independent value observed, in order (see
    /// [`Checks::exact`]); the reference tables are printed from this.
    pub observed: Vec<(String, u64)>,
}

impl Checks {
    /// A ledger comparing exact values against `reference`.
    pub fn new(reference: Reference) -> Checks {
        Checks {
            reference,
            attempted: 0,
            failures: Vec::new(),
            observed: Vec::new(),
        }
    }

    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// A seed-independent virtual time that must equal the stored
    /// reference bit for bit. `label` must end in `_s`.
    pub fn vtime(&mut self, label: &str, value: f64) {
        debug_assert!(label.ends_with("_s"));
        self.count(label, value.to_bits());
    }

    /// A seed-independent count that must equal the stored reference.
    pub fn count(&mut self, label: &str, value: u64) {
        self.observed.push((label.to_string(), value));
        let want = self
            .reference
            .iter()
            .find(|(l, _)| *l == label)
            .map(|&(_, v)| v);
        self.check(want == Some(value), || match want {
            None => format!("{label}: no reference value"),
            Some(w) if label.ends_with("_s") => format!(
                "{label}: {} differs from reference {}",
                f64::from_bits(value),
                f64::from_bits(w)
            ),
            Some(w) => format!("{label}: {value} differs from reference {w}"),
        });
    }

    /// Checks made.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failure messages.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_compare_bitwise() {
        const REF: Reference = &[("a.count", 3), ("a.makespan_s", 0x4024_0000_0000_0000)];
        let mut c = Checks::new(REF);
        c.count("a.count", 3);
        c.vtime("a.makespan_s", 10.0);
        assert!(c.failures().is_empty());
        c.vtime("a.makespan_s", 10.000000000000002);
        c.count("a.count", 4);
        c.count("b.count", 1);
        assert_eq!(c.attempted(), 5);
        assert_eq!(c.failures().len(), 3);
        assert!(c.failures()[0].contains("10.000000000000002"));
        assert!(c.failures()[2].contains("no reference"));
    }
}
