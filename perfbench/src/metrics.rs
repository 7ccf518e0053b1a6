//! Named metrics, the ledger-phase → metric-name mapping, and the
//! one-line JSON result.

use std::collections::BTreeMap;

/// Longest metric name accepted.
pub const MAX_NAME_LEN: usize = 64;

/// Whether `name` is a valid metric name: 1 to [`MAX_NAME_LEN`]
/// characters from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= MAX_NAME_LEN
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Preprocessing ledger phases (below `pre/`) with a metric of their own.
pub const PRE_PHASES: &[&str] = &[
    "all-to-best",
    "hierarchy/cut-player",
    "hierarchy/leftover",
    "hierarchy/matching-player",
    "hierarchy/mroot",
    "leaf",
    "routable-networks",
    "shuffler/cut-player",
    "shuffler/matching-player",
];

/// Query ledger phases (below `query/`) with a metric of their own.
pub const QUERY_PHASES: &[&str] = &[
    "delivery",
    "ingress",
    "translate",
    "sort/delivery",
    "sort/network",
    "sort/to-best",
    "task2/leaf",
    "task2/mstar",
    "task3/disperse",
    "task3/fallback",
    "task3/merge",
    "task3/portal",
    "task3/reverse",
];

/// Metric name of ledger phase `phase` in `family` (`"pre"` or
/// `"query"`): `rounds.<family>.<rest>` with `/` mapped to `.`, where
/// `rest` is the phase below `<family>/`. Phases outside `known` (or
/// outside the family) fold into `rounds.<family>.other`.
pub fn phase_metric(family: &str, known: &[&str], phase: &str) -> String {
    match phase.strip_prefix(family).and_then(|p| p.strip_prefix('/')) {
        Some(rest) if known.contains(&rest) => {
            format!("rounds.{family}.{}", rest.replace('/', "."))
        }
        _ => format!("rounds.{family}.other"),
    }
}

/// Every metric name of a phase family, `other` included.
pub fn phase_family_names(family: &str, known: &[&str]) -> Vec<String> {
    known
        .iter()
        .map(|p| phase_metric(family, known, &format!("{family}/{p}")))
        .chain([format!("rounds.{family}.other")])
        .collect()
}

/// Per-metric round counts of a ledger `breakdown`, zero-filled over
/// every name of the family. Fails unless the family sums exactly to
/// `total`.
pub fn phase_family<'a>(
    family: &str,
    known: &[&str],
    breakdown: impl IntoIterator<Item = (&'a str, u64)>,
    total: u64,
) -> Result<BTreeMap<String, u64>, String> {
    let mut out: BTreeMap<String, u64> =
        phase_family_names(family, known).into_iter().map(|n| (n, 0)).collect();
    for (phase, rounds) in breakdown {
        *out.entry(phase_metric(family, known, phase)).or_default() += rounds;
    }
    let sum: u64 = out.values().sum();
    if sum == total {
        Ok(out)
    } else {
        Err(format!("rounds.{family}.* sums to {sum}, ledger total is {total}"))
    }
}

/// One measured value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// A set of named metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    /// Sets `name` (overwriting an earlier value).
    ///
    /// # Panics
    ///
    /// On an invalid name: metric names are fixed in this benchmark's
    /// source, so a bad one is a bug here.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        self.0.insert(name, Metric { value, unit });
    }

    pub fn get(&self, name: &str) -> Option<Metric> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, Metric)> {
        self.0.iter().map(|(k, m)| (k.as_str(), *m))
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Non-finite values are written as `null`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let v = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_validity() {
        for ok in ["setup_s", "rounds.pre.hierarchy.cut-player", "9lives", "a", &"x".repeat(64)] {
            assert!(valid_name(ok), "{ok:?} should be valid");
        }
        for bad in
            ["", "_lead", ".lead", "-lead", "has space", "slash/name", "ünï", &"x".repeat(65)]
        {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn phase_names_map_slashes_to_dots() {
        assert_eq!(
            phase_metric("pre", PRE_PHASES, "pre/hierarchy/cut-player"),
            "rounds.pre.hierarchy.cut-player"
        );
        assert_eq!(
            phase_metric("query", QUERY_PHASES, "query/task3/disperse"),
            "rounds.query.task3.disperse"
        );
        // Unknown phases and other families fold into `other`.
        assert_eq!(phase_metric("query", QUERY_PHASES, "query/churn/bfs"), "rounds.query.other");
        assert_eq!(phase_metric("pre", PRE_PHASES, "query/ingress"), "rounds.pre.other");
        assert_eq!(phase_metric("pre", PRE_PHASES, "prelude/leaf"), "rounds.pre.other");
    }

    #[test]
    fn every_family_name_is_valid_and_unique() {
        for (family, known) in [("pre", PRE_PHASES), ("query", QUERY_PHASES)] {
            let names = phase_family_names(family, known);
            assert_eq!(names.len(), known.len() + 1);
            let unique: std::collections::BTreeSet<_> = names.iter().collect();
            assert_eq!(unique.len(), names.len());
            assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        }
    }

    #[test]
    fn phase_family_sums_exactly() {
        let breakdown = [("query/ingress", 5), ("query/task3/merge", 7), ("query/churn/bfs", 3)];
        let fam = phase_family("query", QUERY_PHASES, breakdown, 15).expect("sums to 15");
        assert_eq!(fam["rounds.query.ingress"], 5);
        assert_eq!(fam["rounds.query.task3.merge"], 7);
        assert_eq!(fam["rounds.query.other"], 3);
        assert_eq!(fam["rounds.query.delivery"], 0, "zero-filled");
        assert_eq!(fam.values().sum::<u64>(), 15);
        assert!(phase_family("query", QUERY_PHASES, breakdown, 16).is_err());
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms");
        m.set("rounds", 197527092.0, "rounds");
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"rounds\": {\"value\": 197527092, \"unit\": \"rounds\"}}}"
        );
        m.set("bad", f64::NAN, "ms");
        assert!(result_json(true, 1, 0, &m).contains("\"bad\": {\"value\": null"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn set_rejects_invalid_names() {
        Metrics::default().set("no spaces", 1.0, "ms");
    }
}
