//! Prometheus text exposition: family declarations, rendering, a total
//! parser, and the key-wise merge the router uses.
//!
//! The format subset used here is one line per sample —
//! `name{label="value",...} number` (labels optional) — plus `# `-prefixed
//! comments. Every family is declared once as a [`Family`]: its name, TYPE,
//! HELP, and the [`Merge`] rule that folds its samples across processes.
//! Because every histogram in the stack has the same 32 log2 buckets and
//! always renders **all** of them (cumulative, with identical `le` edges),
//! merging expositions reduces to a key-wise fold over series lines by each
//! family's declared rule. For counters and histograms that fold is exact —
//! the merged text equals what one process observing all the traffic would
//! have rendered.

use crate::{bucket_upper, HistogramSnapshot, BUCKETS};
use std::collections::BTreeMap;

/// How one family's samples from several processes fold into one value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Add them: counters, histogram buckets, and gauges whose replicas
    /// each hold a share (resident bytes, queue depths).
    Sum,
    /// Keep the largest: gauges every replica reports about the same thing
    /// (a dataset version, an SLO burn rate, an exact maximum).
    Max,
}

impl Merge {
    /// Folds `v` into the accumulated `acc`.
    pub fn fold(self, acc: f64, v: f64) -> f64 {
        match self {
            Merge::Sum => acc + v,
            Merge::Max => acc.max(v),
        }
    }
}

/// One metric family, declared once: the single source of its exposition
/// headers and of its cross-process merge rule.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    /// The metric name (histogram sample suffixes excluded).
    pub name: &'static str,
    /// The `# TYPE` kind: `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// How the router folds this family's samples across backends.
    pub merge: Merge,
}

impl Family {
    /// A monotonic counter (sums across processes).
    pub const fn counter(name: &'static str, help: &'static str) -> Family {
        Family { name, kind: "counter", help, merge: Merge::Sum }
    }

    /// A point-in-time gauge with an explicit merge rule.
    pub const fn gauge(name: &'static str, help: &'static str, merge: Merge) -> Family {
        Family { name, kind: "gauge", help, merge }
    }

    /// A log2 histogram (buckets, sum and count sum across processes).
    pub const fn histogram(name: &'static str, help: &'static str) -> Family {
        Family { name, kind: "histogram", help, merge: Merge::Sum }
    }

    /// Appends this family's `# HELP` / `# TYPE` header pair.
    pub fn push_header(&self, out: &mut String) {
        push_header(out, self.name, self.kind, self.help);
    }
}

/// Escapes a label value per the exposition format (`\` → `\\`, `"` →
/// `\"`, newline → `\n`).
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders one series key: `name{a="x",b="y"}`, or bare `name` with no
/// labels.
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let inner = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{name}{{{inner}}}")
}

/// Appends one sample line `key value` to `out`.
pub fn push_sample(out: &mut String, key: &str, value: u64) {
    out.push_str(key);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Renders a histogram snapshot as cumulative `_bucket` lines (always all
/// [`BUCKETS`] of them, so cross-process merges stay exact), plus `_sum`,
/// `_count`, and an exact `_max` gauge.
pub fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    snap: &HistogramSnapshot,
) {
    let mut cum = 0u64;
    for i in 0..BUCKETS {
        cum += snap.buckets[i];
        let le = if i == BUCKETS - 1 { "+Inf".to_string() } else { bucket_upper(i).to_string() };
        let mut with_le: Vec<(&str, &str)> = labels.to_vec();
        with_le.push(("le", &le));
        push_sample(out, &series_key(&format!("{name}_bucket"), &with_le), cum);
    }
    push_sample(out, &series_key(&format!("{name}_sum"), labels), snap.sum_us);
    push_sample(out, &series_key(&format!("{name}_count"), labels), snap.count);
    push_sample(out, &series_key(&format!("{name}_max"), labels), snap.max_us);
}

/// Checks that every non-blank line is a `# ` comment or a
/// `key value` sample with a finite numeric value and a plausible metric
/// name, **and** that every sample's family declared both a `# HELP` and a
/// `# TYPE` header before its first sample. The header rule is
/// declared-before, not contiguity: a family's samples may interleave with
/// another family's (the sorted merge output puts `f_max` between
/// `f_count` and `f_sum`), as long as each family's headers came first.
/// Returns the first offending line.
pub fn validate(text: &str) -> Result<(), String> {
    let mut helped: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    let mut typed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if name.is_empty() {
                return Err(format!("HELP without a metric name: `{line}`"));
            }
            helped.insert(name);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut toks = rest.split(' ');
            let name = toks.next().unwrap_or("");
            let kind = toks.next().unwrap_or("");
            if name.is_empty()
                || !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped")
            {
                return Err(format!("bad TYPE header: `{line}`"));
            }
            typed.insert(name);
            continue;
        }
        if line.starts_with("# ") {
            continue;
        }
        let Some((key, value)) = line.rsplit_once(' ') else {
            return Err(format!("not `key value`: `{line}`"));
        };
        if value.parse::<f64>().map(|v| !v.is_finite()).unwrap_or(true) {
            return Err(format!("bad sample value: `{line}`"));
        }
        let name = key.split('{').next().unwrap_or("");
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("bad metric name: `{line}`"));
        }
        if key.contains('{') && !key.ends_with('}') {
            return Err(format!("unterminated labels: `{line}`"));
        }
        let family = family_of(key);
        if !typed.contains(family) {
            return Err(format!("series without a preceding `# TYPE {family}`: `{line}`"));
        }
        if !helped.contains(family) {
            return Err(format!("series without a preceding `# HELP {family}`: `{line}`"));
        }
    }
    Ok(())
}

/// Parses an exposition into `series key → value`. Total: comments, blank
/// lines, and anything that fails to parse contribute nothing.
pub fn parse(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.rsplit_once(' ') else { continue };
        let Ok(v) = value.parse::<f64>() else { continue };
        if key.is_empty() || !v.is_finite() {
            continue;
        }
        out.insert(key.to_string(), v);
    }
    out
}

/// The metric name of a series key (the part before `{`, if any).
pub fn metric_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// The metric **family** a series key belongs to: the metric name with any
/// histogram sample suffix (`_bucket`, `_sum`, `_count`) stripped. The
/// exact-max companion series (`_max`) is deliberately *not* stripped — it
/// is exposed as its own gauge family, since Prometheus histograms have no
/// max sample and the merge rule differs (max, not sum).
pub fn family_of(key: &str) -> &str {
    let name = metric_name(key);
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            if !stripped.is_empty() {
                return stripped;
            }
        }
    }
    name
}

/// Appends the `# HELP` / `# TYPE` header pair for one metric family.
pub fn push_header(out: &mut String, family: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(family);
    out.push(' ');
    out.push_str(help);
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(family);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Merges several expositions key-wise, each series folded by
/// `rule(family)` — the family's declared [`Merge`]; the rule is never
/// inferred from the name. Output is one sorted sample line per key (whole
/// numbers render without a decimal point), with each family's `# HELP` /
/// `# TYPE` headers — first-seen across the inputs — emitted exactly once,
/// immediately before the family's first sample. Families whose inputs
/// carried no headers stay headerless (the merge never invents metadata).
pub fn merge(texts: &[String], rule: impl Fn(&str) -> Merge) -> String {
    let mut acc: BTreeMap<String, f64> = BTreeMap::new();
    let mut help: BTreeMap<String, String> = BTreeMap::new();
    let mut kind: BTreeMap<String, String> = BTreeMap::new();
    for text in texts {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                if let Some((name, h)) = rest.split_once(' ') {
                    help.entry(name.to_string()).or_insert_with(|| h.to_string());
                }
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((name, k)) = rest.split_once(' ') {
                    kind.entry(name.to_string()).or_insert_with(|| k.to_string());
                }
            }
        }
        for (key, v) in parse(text) {
            let merge = rule(family_of(&key));
            acc.entry(key).and_modify(|cur| *cur = merge.fold(*cur, v)).or_insert(v);
        }
    }
    let mut out = String::new();
    let mut emitted: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (key, v) in acc {
        let family = family_of(&key);
        if emitted.insert(family.to_string()) {
            if let (Some(h), Some(k)) = (help.get(family), kind.get(family)) {
                push_header(&mut out, family, k, h);
            }
        }
        out.push_str(&key);
        out.push(' ');
        if v.fract() == 0.0 && v.abs() < 9e15 {
            out.push_str(&format!("{}", v as i64));
        } else {
            out.push_str(&format!("{v}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    /// The rule the tests declare: histogram `_max` companions keep the
    /// max, everything else sums.
    fn rule(family: &str) -> Merge {
        if family.ends_with("_max") {
            Merge::Max
        } else {
            Merge::Sum
        }
    }

    #[test]
    fn series_keys_escape_labels() {
        assert_eq!(series_key("m", &[]), "m");
        assert_eq!(series_key("m", &[("a", "x\"y\\z")]), "m{a=\"x\\\"y\\\\z\"}");
    }

    #[test]
    fn validate_accepts_rendered_and_rejects_garbage() {
        let h = Histogram::new();
        h.record(100);
        let mut out = String::new();
        push_header(&mut out, "m", "histogram", "A test histogram.");
        push_header(&mut out, "m_max", "gauge", "Its exact max.");
        render_histogram(&mut out, "m", &[("t", "x")], &h.snapshot());
        validate(&out).unwrap();
        assert!(validate("not an exposition line").is_err());
        assert!(validate("name notanumber").is_err());
        assert!(validate("1name 3").is_err());
        assert!(validate("m{a=\"b\" 3").is_err());
        assert!(validate("# TYPE m sideways\nm 3\n").is_err(), "unknown TYPE kind");
    }

    #[test]
    fn validate_requires_declared_before_headers() {
        // A bare sample with no headers is rejected...
        assert!(validate("m_total 3\n").is_err());
        // ...as is TYPE-only or HELP-only...
        assert!(validate("# TYPE m_total counter\nm_total 3\n").is_err());
        assert!(validate("# HELP m_total a counter\nm_total 3\n").is_err());
        // ...and headers after the sample are too late.
        assert!(
            validate("m_total 3\n# HELP m_total a\n# TYPE m_total counter\n").is_err(),
            "declared-before means before"
        );
        let ok = "# HELP m_total a counter\n# TYPE m_total counter\nm_total 3\n";
        validate(ok).unwrap();
        // Histogram sample suffixes resolve to the family's headers; the
        // `_max` companion needs its own gauge headers.
        let mut hist = String::new();
        push_header(&mut hist, "h", "histogram", "hist");
        hist.push_str("h_bucket{le=\"+Inf\"} 1\nh_sum 2\nh_count 1\nh_max 2\n");
        let err = validate(&hist).unwrap_err();
        assert!(err.contains("h_max"), "{err}");
        push_header(&mut hist, "h_max", "gauge", "max");
        // Headers appended after the samples do not rescue them.
        assert!(validate(&hist).is_err());
        let mut good = String::new();
        push_header(&mut good, "h", "histogram", "hist");
        push_header(&mut good, "h_max", "gauge", "max");
        good.push_str("h_bucket{le=\"+Inf\"} 1\nh_sum 2\nh_count 1\nh_max 2\n");
        validate(&good).unwrap();
    }

    #[test]
    fn merged_exposition_equals_bucketwise_sum_of_backends() {
        // Two "backends" record disjoint traffic; merging their rendered
        // expositions must equal the rendering of one histogram that saw
        // all of it — the router's aggregation invariant.
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for us in [3u64, 90, 1500] {
            a.record(us);
            all.record(us);
        }
        for us in [7u64, 7, 40_000] {
            b.record(us);
            all.record(us);
        }
        let render = |h: &Histogram| {
            let mut s = String::new();
            push_header(&mut s, "knn_request_duration_us", "histogram", "Request latency.");
            push_header(&mut s, "knn_request_duration_us_max", "gauge", "Max latency.");
            render_histogram(&mut s, "knn_request_duration_us", &[("tenant", "d")], &h.snapshot());
            s
        };
        let merged = merge(&[render(&a), render(&b)], rule);
        // `merge` normalizes to sorted order, so compare through `parse`.
        assert_eq!(parse(&merged), parse(&render(&all)));
        validate(&merged).unwrap();
        // Headers survive the merge exactly once, before the first sample.
        assert_eq!(merged.matches("# TYPE knn_request_duration_us histogram").count(), 1);
        assert_eq!(merged.matches("# HELP knn_request_duration_us ").count(), 1);
        assert_eq!(merged.matches("# TYPE knn_request_duration_us_max gauge").count(), 1);
        // And counters sum while _max takes the max; headerless inputs
        // merge to headerless output (the merge invents no metadata).
        let m = merge(&["c_total 2\nm_max 9\n".into(), "c_total 3\nm_max 4\n".into()], rule);
        assert_eq!(m, "c_total 5\nm_max 9\n");
        // The rule is the declared one, not the name: a gauge declared Max
        // keeps the max even without the suffix.
        let epoch = |f: &str| if f == "epoch" { Merge::Max } else { rule(f) };
        assert_eq!(merge(&["epoch 3\n".into(), "epoch 3\n".into()], epoch), "epoch 3\n");
    }

    #[test]
    fn merge_is_associative_and_commutative_over_inputs() {
        let mk = |vals: &[u64], extra: &str| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            let mut s = String::new();
            push_header(&mut s, "m", "histogram", "hist");
            push_header(&mut s, "m_max", "gauge", "max");
            render_histogram(&mut s, "m", &[("tenant", "d")], &h.snapshot());
            s.push_str(extra);
            s
        };
        let x = mk(&[5, 90], "# HELP c_total c\n# TYPE c_total counter\nc_total 2\n");
        let y =
            mk(&[7, 7, 40_000], "# HELP c_total other help\n# TYPE c_total counter\nc_total 5\n");
        let z = mk(&[1_000_000], "");
        // Commutative: any permutation parses identically.
        let base = parse(&merge(&[x.clone(), y.clone(), z.clone()], rule));
        for perm in [[&y, &x, &z], [&z, &y, &x], [&x, &z, &y]] {
            let m = merge(&[perm[0].clone(), perm[1].clone(), perm[2].clone()], rule);
            assert_eq!(parse(&m), base);
            validate(&m).unwrap();
        }
        // Associative: merge(merge(x, y), z) == merge(x, merge(y, z)).
        let left = merge(&[merge(&[x.clone(), y.clone()], rule), z.clone()], rule);
        let right = merge(&[x.clone(), merge(&[y.clone(), z.clone()], rule)], rule);
        assert_eq!(parse(&left), parse(&right));
        assert_eq!(parse(&left), base);
    }

    #[test]
    fn parse_is_total() {
        let m = parse("# c\n\ngarbage\nx 1\ny{a=\"b\"} 2.5\nz inf\n");
        assert_eq!(m.len(), 2);
        assert_eq!(m["x"], 1.0);
        assert_eq!(m["y{a=\"b\"}"], 2.5);
    }
}
