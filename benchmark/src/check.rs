//! Output checks: the named fields of a `dlb run` report and of the
//! serve stats JSON, and the FNV-1a checksum that pins them.
//!
//! Both parsers read fields *by name* and skip everything else, so a
//! later addition to a report does not break the pins.

use dlb_json::Json;

/// Simulated statistics as ordered `(name, rendered value)` pairs.
pub type Fields = Vec<(String, String)>;

/// Labels of the `dlb run` report rows the check reads, in report
/// order (the last nine appear for the async strategy only).
const REPORT_LABELS: [&str; 15] = [
    "mean max/mean",
    "p95 max/mean",
    "worst max/mean",
    "ops/run",
    "migrated/run",
    "final total",
    "completed ops",
    "aborted ops",
    "retries",
    "timeout recov.",
    "lost messages",
    "duplicated",
    "crashes",
    "recoveries",
    "lost load",
];

/// Reads the [`REPORT_LABELS`] rows out of a `dlb run` report.
pub fn report_fields(stdout: &str) -> Fields {
    let mut fields = Fields::new();
    for line in stdout.lines() {
        for label in REPORT_LABELS {
            // A row is `label`, at least one space, then the value.
            let Some(rest) = line.strip_prefix(label) else {
                continue;
            };
            if rest.starts_with(' ') && !fields.iter().any(|(k, _)| k == label) {
                fields.push((label.to_string(), rest.trim().to_string()));
            }
        }
    }
    fields
}

/// Top-level serve stats keys the check reads.
const STATS_KEYS: [&str; 6] = [
    "issued",
    "completed",
    "dropped",
    "in_flight",
    "redirected",
    "rebalances",
];

/// Reads the checked keys (and every `latency_ticks.*` member) out of
/// a serve stats document.
pub fn stats_fields(doc: &Json) -> Result<Fields, String> {
    let mut fields = Fields::new();
    for key in STATS_KEYS {
        let value = doc.get(key).ok_or_else(|| format!("stats lack {key:?}"))?;
        fields.push((key.to_string(), value.render()));
    }
    let latency = doc
        .get("latency_ticks")
        .and_then(Json::as_obj)
        .ok_or("stats lack the \"latency_ticks\" object")?;
    for (key, value) in latency {
        fields.push((format!("latency_ticks.{key}"), value.render()));
    }
    Ok(fields)
}

/// The serve ledger: `issued == completed + dropped + in_flight`.
pub fn ledger_closes(fields: &Fields) -> bool {
    let get = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse::<u64>().ok())
    };
    match (
        get("issued"),
        get("completed"),
        get("dropped"),
        get("in_flight"),
    ) {
        (Some(i), Some(c), Some(d), Some(f)) => i == c + d + f,
        _ => false,
    }
}

/// 64-bit FNV-1a over `name=value\n` for every field, as 16 hex digits.
pub fn checksum(fields: &Fields) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (key, value) in fields {
        for byte in key.bytes().chain(*b"=").chain(value.bytes()).chain(*b"\n") {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Describes the first difference between two field lists, if any.
pub fn first_difference(expected: &Fields, got: &Fields) -> Option<String> {
    for (k, v) in expected {
        match got.iter().find(|(gk, _)| gk == k) {
            None => return Some(format!("{k}: missing (expected {v})")),
            Some((_, gv)) if gv != v => return Some(format!("{k}: expected {v}, got {gv}")),
            Some(_) => {}
        }
    }
    (expected.len() != got.len()).then(|| {
        format!(
            "field count: expected {}, got {}",
            expected.len(),
            got.len()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "running: 64 processors, 500 steps x 200 runs, strategy Full\n\n\
        strategy        spaa93-full\n\
        mean max/mean   1.132\n\
        p95 max/mean    1.343\n\
        worst max/mean  2.397\n\
        some new row    17\n\
        ops/run         9689.0\n\
        migrated/run    9168.7\n\
        final total     3938\n\
        retries         5\n\
        lost load       12\n\n\
        trace written to t.jsonl\n";

    #[test]
    fn report_parser_reads_named_rows_and_skips_the_rest() {
        let fields = report_fields(REPORT);
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "mean max/mean",
                "p95 max/mean",
                "worst max/mean",
                "ops/run",
                "migrated/run",
                "final total",
                "retries",
                "lost load"
            ]
        );
        assert_eq!(fields[3].1, "9689.0");
        assert_eq!(fields[5].1, "3938");
    }

    #[test]
    fn stats_parser_reads_named_keys_and_checks_the_ledger() {
        let doc = Json::parse(
            r#"{"mode":"sim","issued":10,"completed":8,"dropped":1,"in_flight":1,
                "redirected":3,"rebalances":4,"new_key":[1,2],
                "latency_ticks":{"count":8,"mean":2.5,"p50":2,"p999":9}}"#,
        )
        .unwrap();
        let fields = stats_fields(&doc).unwrap();
        assert_eq!(fields.len(), 10);
        assert_eq!(fields[0], ("issued".to_string(), "10".to_string()));
        assert_eq!(
            fields[7],
            ("latency_ticks.mean".to_string(), "2.5".to_string())
        );
        assert!(ledger_closes(&fields));
        let mut broken = fields.clone();
        broken[1].1 = "7".to_string();
        assert!(!ledger_closes(&broken));
        assert!(stats_fields(&Json::parse(r#"{"issued":1}"#).unwrap()).is_err());
    }

    #[test]
    fn checksum_is_fnv1a_and_order_sensitive() {
        // FNV-1a 64 of the empty input is the offset basis.
        assert_eq!(checksum(&Fields::new()), "cbf29ce484222325");
        // FNV-1a 64 of "a=b\n" computed by hand from the definition.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in *b"a=b\n" {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let ab = vec![("a".to_string(), "b".to_string())];
        assert_eq!(checksum(&ab), format!("{h:016x}"));
        let x = vec![
            ("a".to_string(), "1".to_string()),
            ("b".to_string(), "2".to_string()),
        ];
        let y: Fields = x.iter().rev().cloned().collect();
        assert_ne!(checksum(&x), checksum(&y));
    }

    #[test]
    fn differences_are_named() {
        let a = report_fields(REPORT);
        assert_eq!(first_difference(&a, &a), None);
        let mut b = a.clone();
        b[3].1 = "9690.0".to_string();
        assert_eq!(
            first_difference(&a, &b).unwrap(),
            "ops/run: expected 9689.0, got 9690.0"
        );
        b.pop();
        b[3].1 = "9689.0".to_string();
        assert!(first_difference(&a, &b).unwrap().contains("lost load"));
    }
}
