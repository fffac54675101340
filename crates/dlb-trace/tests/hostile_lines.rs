//! Hostile input: `TraceEvent::from_line` returns `Ok` or `Err` and
//! never panics, on arbitrary bytes and on valid lines of every event
//! type with one key, value or type tag mutated; a mutant it refuses is
//! refused by the key it broke.

use dlb_json::Json;
use dlb_trace::TraceEvent;
use proptest::prelude::*;

/// One valid line of every event type, as parsed documents.
fn samples() -> Vec<Json> {
    [
        TraceEvent::RunStarted {
            run: 1,
            seed: 2,
            n: 8,
            strategy: "spaa93-full".into(),
            delta: 1,
            f: 1.1,
            c: 4,
        },
        TraceEvent::BalanceInitiated {
            step: 3,
            initiator: 1,
            partners: vec![0, 2],
            trigger: 1.5,
        },
        TraceEvent::PacketsMigrated {
            step: 3,
            initiator: 1,
            count: 4,
        },
        TraceEvent::MarkerMoved {
            step: 3,
            initiator: 1,
            count: 2,
        },
        TraceEvent::FaultInjected {
            step: 4,
            proc: 2,
            kind: "loss".into(),
        },
        TraceEvent::CrashRecovered { step: 5, proc: 2 },
        TraceEvent::StepProfile {
            step: 5,
            wall_ns: 100,
            ops: 2,
        },
        TraceEvent::StepDelta {
            step: 5,
            counters: vec![("generated".into(), 3), ("consumed".into(), 1)],
        },
        TraceEvent::LoadSample {
            step: 5,
            min: 0,
            max: 7,
            total: 20,
        },
        TraceEvent::RequestRouted {
            step: 6,
            req: 9,
            shard: 1,
        },
        TraceEvent::RequestCompleted {
            step: 7,
            req: 9,
            shard: 1,
            latency_ticks: 1,
        },
        TraceEvent::RequestsRedirected {
            step: 7,
            from: 1,
            to: 2,
            count: 3,
        },
        TraceEvent::AcceptorHandoff {
            step: 8,
            from: 0,
            to: 1,
            count: 2,
        },
        TraceEvent::ArenaContender {
            run: 0,
            label: "full".into(),
            strategy: "spaa93-full".into(),
            seed: 5,
        },
        TraceEvent::RunFinished { run: 1 },
    ]
    .iter()
    .map(|ev| Json::parse(&ev.to_line()).expect("a rendered line parses"))
    .collect()
}

/// A value of another JSON type, or a number no field takes whole.
fn hostile(which: usize) -> Json {
    match which % 9 {
        0 => Json::Null,
        1 => Json::Bool(true),
        2 => Json::Str("x".into()),
        3 => Json::Arr(vec![Json::Int(-1)]),
        4 => Json::Obj(vec![("a".into(), Json::Int(-1))]),
        5 => Json::Int(-1),
        6 => Json::Int(i128::from(u64::MAX) + 1),
        7 => Json::Float(0.5),
        _ => Json::Float(1e308),
    }
}

/// A type tag: another event type's, or none.
fn tag(which: usize) -> Json {
    let docs = samples();
    match docs.get(which) {
        Some(doc) => doc.get("t").expect("every line is tagged").clone(),
        None => Json::Str("nope".into()),
    }
}

proptest! {
    /// Arbitrary bytes, and valid lines with a byte range overwritten.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        doc in 0usize..15,
        at in any::<usize>(),
    ) {
        TraceEvent::from_line(&String::from_utf8_lossy(&bytes)).ok();
        let docs = samples();
        let mut line = docs[doc % docs.len()].render().into_bytes();
        let at = at % line.len();
        let end = (at + bytes.len()).min(line.len());
        line.splice(at..end, bytes.iter().copied());
        TraceEvent::from_line(&String::from_utf8_lossy(&line)).ok();
    }

    /// One field of a valid line gets another value (`op` 0; `nested`
    /// puts it inside an array or object field), is dropped (1) or has
    /// its key misspelt (2); or the line gets another type tag (3).
    #[test]
    fn mutated_lines_fail_by_key(
        doc in 0usize..15,
        field in any::<usize>(),
        op in 0usize..4,
        which in 0usize..16,
        nested in any::<bool>(),
    ) {
        let docs = samples();
        let Json::Obj(mut fields) = docs[doc % docs.len()].clone() else {
            unreachable!("a line is an object")
        };
        let i = field % fields.len();
        let key = fields[i].0.clone();
        match op {
            0 => match &mut fields[i].1 {
                Json::Arr(items) if nested && !items.is_empty() => items[0] = hostile(which),
                Json::Obj(entries) if nested && !entries.is_empty() => {
                    entries[0].1 = hostile(which);
                }
                value => *value = hostile(which),
            },
            1 => drop(fields.remove(i)),
            2 => fields[i].0.push('x'),
            _ => fields[0].1 = tag(which),
        }
        let line = Json::Obj(fields).render();
        if let Err(err) = TraceEvent::from_line(&line) {
            // A new tag names the first field its own type misses.
            let named = if op == 3 {
                err.contains("field '")
            } else {
                err.contains(&format!("'{key}'"))
            };
            prop_assert!(named, "{err}\n    in {line}");
        }
    }
}
