//! Cost and activity counters for the load balancing algorithm.
//!
//! The four counters of the paper's Table 1 are `total_borrow`,
//! `remote_borrow`, `borrow_fail` and `decrease_sim`; the rest quantify
//! the migration/communication tradeoffs discussed in §1 and §6.

use std::borrow::Cow;
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
        $macro! {
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
        }
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

    /// Every counter as `(name, value)`, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); Self::FIELD_NAMES.len()] {
        macro_rules! rows {
            ($($field:ident),*) => {
                [$((stringify!($field), self.$field)),*]
            };
        }
        metrics_fields!(rows)
    }

    /// Fills `out` with the counters that grew since `before`, as
    /// `(name, increment)` in declaration order: the payload of a step's
    /// trace `StepDelta`, in the list its engine lends to every one, so
    /// a trace replays to the exact final `Metrics` whichever engine
    /// wrote it.  Counters are monotone, so saturating subtraction is
    /// exact.
    pub fn delta_into(&self, before: &Metrics, out: &mut Vec<(Cow<'static, str>, u64)>) {
        out.clear();
        // Room for every counter once, so a reused list never grows.
        out.reserve(Self::FIELD_NAMES.len());
        for ((name, now), (_, was)) in self.fields().into_iter().zip(before.fields()) {
            let inc = now.saturating_sub(was);
            if inc != 0 {
                out.push((Cow::Borrowed(name), inc));
            }
        }
    }

    /// Adds `inc` to the counter named `name`: a trace `StepDelta` entry
    /// replayed.  Refuses a name that is no counter and a sum past
    /// `u64::MAX`.
    pub fn add_named(&mut self, name: &str, inc: u64) -> Result<(), String> {
        macro_rules! slot {
            ($($field:ident),*) => {
                match name {
                    $(stringify!($field) => &mut self.$field,)*
                    _ => return Err(format!("unknown counter '{name}'")),
                }
            };
        }
        let slot = metrics_fields!(slot);
        *slot = slot
            .checked_add(inc)
            .ok_or_else(|| format!("counter '{name}' passes u64::MAX"))?;
        Ok(())
    }
}

// Every counter is optional: a snapshot written before a counter
// existed restores it as zero.
macro_rules! codec {
    ($($field:ident),*) => {
        dlb_json::codec! { struct Metrics { $($field: or(0)),* } }
    };
}
metrics_fields!(codec);

impl AddAssign for Metrics {
    fn add_assign(&mut self, other: Metrics) {
        macro_rules! add {
            ($($field:ident),*) => {
                $(self.$field += other.$field;)*
            };
        }
        metrics_fields!(add);
    }
}

impl fmt::Display for Metrics {
    /// One `name value` line per counter — every `metrics_fields!` entry,
    /// so new counters can never be silently dropped from the printout
    /// (`markers_migrated`, `markers_settled`, `consume_blocked` and
    /// `consume_failed` used to be).
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.fields().iter().enumerate() {
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
    use dlb_json::{FromJson, ToJson};

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
        let mut delta = vec![(Cow::Borrowed("stale"), 1)];
        after.delta_into(&before, &mut delta);
        assert_eq!(
            delta,
            vec![(Cow::Borrowed("balance_ops"), 3), ("generated".into(), 4)]
        );
        // Replaying the named deltas onto `before` reproduces `after`.
        let mut replay = before;
        for (name, inc) in &delta {
            replay.add_named(name, *inc).unwrap();
        }
        assert_eq!(replay, after);
        let err = replay.add_named("no_such_counter", 1).unwrap_err();
        assert_eq!(err, "unknown counter 'no_such_counter'");
        assert_eq!(replay, after, "a refused add changes nothing");
    }

    #[test]
    fn an_add_past_u64_max_is_refused() {
        let mut m = Metrics {
            balance_ops: u64::MAX,
            ..Metrics::new()
        };
        let err = m.add_named("balance_ops", 1).unwrap_err();
        assert_eq!(err, "counter 'balance_ops' passes u64::MAX");
        assert_eq!(m.balance_ops, u64::MAX);
        m.add_named("messages", u64::MAX).unwrap();
        assert_eq!(m.messages, u64::MAX);
    }

    #[test]
    fn add_assign_and_delta_cover_every_counter() {
        // `+=` and `delta_into` are generated from `metrics_fields!`, as
        // the names are: a counter added there is summed and traced.
        let mut ones = Metrics::new();
        for name in Metrics::FIELD_NAMES {
            ones.add_named(name, 1).unwrap();
        }
        let mut twos = ones;
        twos += ones;
        assert!(twos.fields().iter().all(|&(_, v)| v == 2), "{twos:?}");
        let mut delta = Vec::new();
        twos.delta_into(&ones, &mut delta);
        let names: Vec<&str> = delta.iter().map(|(name, _)| &**name).collect();
        assert_eq!(names, Metrics::FIELD_NAMES);
        assert!(delta.capacity() >= Metrics::FIELD_NAMES.len());
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
