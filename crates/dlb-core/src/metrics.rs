//! Cost and activity counters for the load balancing algorithm.
//!
//! The four counters of the paper's Table 1 are `total_borrow`,
//! `remote_borrow`, `borrow_fail` and `decrease_sim`; the rest quantify
//! the migration/communication tradeoffs discussed in §1 and §6.

use dlb_json::{FromJson, Json, ToJson};
use std::fmt;
use std::ops::AddAssign;

/// Counters accumulated over a run of the algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Full balancing operations (trigger-driven, over `δ + 1` processors).
    pub balance_ops: u64,
    /// Single-class balancing operations (part of the §4 reduce-borrow
    /// procedure).
    pub class_balance_ops: u64,
    /// Real packets moved between processors by balancing operations.
    pub packets_migrated: u64,
    /// Borrowed-packet markers moved between processors.
    pub markers_migrated: u64,
    /// Borrowing operations: a foreign-class packet consumed locally
    /// (Table 1 "total borrow").
    pub total_borrow: u64,
    /// Remote exchanges of borrowed markers against real generator packets
    /// (Table 1 "remote borrow").
    pub remote_borrow: u64,
    /// Invocations of the §4 procedure to remove a marker whose generator
    /// had no own packets (Table 1 "borrow fail").
    pub borrow_fail: u64,
    /// Initiated simulations of a workload decrease (Table 1 "decrease
    /// sim").
    pub decrease_sim: u64,
    /// Markers settled by annihilation on their home processor.
    pub markers_settled: u64,
    /// Generation events (fresh packets plus marker repayments).
    pub generated: u64,
    /// Consumption events that removed a real packet.
    pub consumed: u64,
    /// Consume requests that could not be served because the processor
    /// held no packets at all.
    pub consume_blocked: u64,
    /// Consume requests that failed despite available load (borrow
    /// machinery exhausted; should remain 0 or negligible).
    pub consume_failed: u64,
    /// Point-to-point messages the algorithm would send (trigger requests,
    /// load reports, packet transfers counted once per packet).
    pub messages: u64,
}

impl Metrics {
    /// New zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }
}

macro_rules! metrics_fields {
    ($macro:ident) => {
        $macro!(
            balance_ops,
            class_balance_ops,
            packets_migrated,
            markers_migrated,
            total_borrow,
            remote_borrow,
            borrow_fail,
            decrease_sim,
            markers_settled,
            generated,
            consumed,
            consume_blocked,
            consume_failed,
            messages
        )
    };
}

impl Metrics {
    /// Every counter's field name, in declaration order (generated from
    /// the same `metrics_fields!` list as the JSON and Display impls, so
    /// it cannot drift from the struct).
    pub const FIELD_NAMES: &'static [&'static str] = {
        macro_rules! names {
            ($($field:ident),*) => {
                &[$(stringify!($field)),*]
            };
        }
        metrics_fields!(names)
    };

    /// Per-counter increments since `before` (callers snapshot a `Copy`
    /// of the metrics at step start and diff at step end). Counters are
    /// monotone, so saturating subtraction is exact.
    pub(crate) fn delta_from(&self, before: &Metrics) -> Metrics {
        macro_rules! diff {
            ($($field:ident),*) => {
                Metrics { $($field: self.$field.saturating_sub(before.$field)),* }
            };
        }
        metrics_fields!(diff)
    }

    /// `(name, value)` pairs of the non-zero counters, in declaration
    /// order — the payload of a trace `StepDelta` event.
    pub(crate) fn nonzero_fields(&self) -> Vec<(&'static str, u64)> {
        macro_rules! rows {
            ($($field:ident),*) => {
                [$((stringify!($field), self.$field)),*]
            };
        }
        metrics_fields!(rows)
            .into_iter()
            .filter(|&(_, v)| v != 0)
            .collect()
    }

    /// Sets the counter named `name` (the trace decoder's inverse of
    /// `Metrics::nonzero_fields`); `false` if no such counter exists.
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        macro_rules! assign {
            ($($field:ident),*) => {
                match name {
                    $(stringify!($field) => self.$field = value,)*
                    _ => return false,
                }
            };
        }
        metrics_fields!(assign);
        true
    }

    /// Reads the counter named `name`, if it exists.
    pub fn get_field(&self, name: &str) -> Option<u64> {
        macro_rules! fetch {
            ($($field:ident),*) => {
                match name {
                    $(stringify!($field) => Some(self.$field),)*
                    _ => None,
                }
            };
        }
        metrics_fields!(fetch)
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> Json {
        macro_rules! emit {
            ($($field:ident),*) => {
                Json::Obj(vec![$((stringify!($field).to_string(), self.$field.to_json())),*])
            };
        }
        metrics_fields!(emit)
    }
}

impl FromJson for Metrics {
    fn from_json(value: &Json) -> Result<Self, String> {
        macro_rules! read {
            ($($field:ident),*) => {
                Ok(Metrics { $($field: dlb_json::field_or(value, stringify!($field), 0)?),* })
            };
        }
        metrics_fields!(read)
    }
}

impl AddAssign for Metrics {
    fn add_assign(&mut self, other: Metrics) {
        self.balance_ops += other.balance_ops;
        self.class_balance_ops += other.class_balance_ops;
        self.packets_migrated += other.packets_migrated;
        self.markers_migrated += other.markers_migrated;
        self.total_borrow += other.total_borrow;
        self.remote_borrow += other.remote_borrow;
        self.borrow_fail += other.borrow_fail;
        self.decrease_sim += other.decrease_sim;
        self.markers_settled += other.markers_settled;
        self.generated += other.generated;
        self.consumed += other.consumed;
        self.consume_blocked += other.consume_blocked;
        self.consume_failed += other.consume_failed;
        self.messages += other.messages;
    }
}

impl fmt::Display for Metrics {
    /// One `name value` line per counter — every `metrics_fields!` entry,
    /// so new counters can never be silently dropped from the printout
    /// (`markers_migrated`, `markers_settled`, `consume_blocked` and
    /// `consume_failed` used to be).
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        macro_rules! rows {
            ($($field:ident),*) => {
                [$((stringify!($field), self.$field)),*]
            };
        }
        let rows = metrics_fields!(rows);
        for (i, (name, value)) in rows.iter().enumerate() {
            let label = name.replace('_', " ");
            if i > 0 {
                writeln!(out)?;
            }
            write!(out, "{label:<18} {value:>12}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = Metrics {
            balance_ops: 2,
            packets_migrated: 10,
            ..Metrics::new()
        };
        let b = Metrics {
            balance_ops: 3,
            total_borrow: 7,
            ..Metrics::new()
        };
        a += b;
        assert_eq!(a.balance_ops, 5);
        assert_eq!(a.packets_migrated, 10);
        assert_eq!(a.total_borrow, 7);
    }

    #[test]
    fn json_round_trip() {
        let m = Metrics {
            balance_ops: 1,
            total_borrow: 2,
            messages: u64::MAX,
            ..Metrics::new()
        };
        let j = dlb_json::Json::parse(&m.to_json().render()).unwrap();
        assert_eq!(Metrics::from_json(&j).unwrap(), m);
        // Missing fields default to zero (forward compatibility).
        assert_eq!(
            Metrics::from_json(&dlb_json::Json::Obj(vec![])).unwrap(),
            Metrics::new()
        );
    }

    #[test]
    fn delta_and_field_access_round_trip() {
        let before = Metrics {
            balance_ops: 2,
            messages: 10,
            ..Metrics::new()
        };
        let after = Metrics {
            balance_ops: 5,
            messages: 10,
            generated: 4,
            ..Metrics::new()
        };
        let delta = after.delta_from(&before);
        assert_eq!(
            delta.nonzero_fields(),
            vec![("balance_ops", 3), ("generated", 4)]
        );
        // Replaying the named deltas onto `before` reproduces `after`.
        let mut replay = before;
        for (name, inc) in delta.nonzero_fields() {
            let cur = replay.get_field(name).expect("known field");
            assert!(replay.set_field(name, cur + inc));
        }
        assert_eq!(replay, after);
        assert!(!replay.set_field("no_such_counter", 1));
        assert_eq!(replay.get_field("no_such_counter"), None);
    }

    #[test]
    fn display_mentions_every_counter() {
        // Regression: Display used to drop markers_migrated,
        // markers_settled, consume_blocked and consume_failed.  Every
        // field of `metrics_fields!` must appear.
        let text = Metrics::new().to_string();
        assert_eq!(Metrics::FIELD_NAMES.len(), 14, "update on field change");
        for name in Metrics::FIELD_NAMES {
            let label = name.replace('_', " ");
            assert!(text.contains(&label), "{label} missing from:\n{text}");
        }
        assert_eq!(text.lines().count(), Metrics::FIELD_NAMES.len());
    }
}
