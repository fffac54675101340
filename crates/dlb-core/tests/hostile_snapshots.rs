//! Hostile input: `ClusterSnapshot::from_json` and `Cluster::restore`
//! return `Ok` or `Err` and never panic, on arbitrary bytes, on valid
//! documents with one key or value mutated, and on snapshots with one
//! part of the state mutated.  A mutant of the state that restores
//! passes its invariants and takes events; huge `l_old` values send its
//! trigger tests past the end of the trigger table.  (The activity
//! counters count up without a cap, so a restored counter near
//! `u64::MAX` overflows the next event: such mutants are only
//! restored.)

use dlb_core::{Cluster, ClusterSnapshot, LoadBalancer, LoadEvent, Params, TriggerTable};
use dlb_json::Json;
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn events(rng: &mut ChaCha8Rng, n: usize) -> Vec<LoadEvent> {
    (0..n)
        .map(|_| match rng.gen_range(0..3) {
            0 => LoadEvent::Generate,
            1 => LoadEvent::Consume,
            _ => LoadEvent::Idle,
        })
        .collect()
}

/// The snapshot of a short run with borrowing (C = 2) on `n` processors.
fn sample(n: usize, seed: u64) -> ClusterSnapshot {
    let params = Params::new(n, 1, 1.2, 2).unwrap();
    let mut cluster = Cluster::with_initial_load(params, seed, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..30 {
        cluster.step(&events(&mut rng, n));
    }
    cluster.snapshot()
}

/// A `u64` from the edges a sum, a float conversion or the trigger
/// table can trip over, or `raw`.
fn value(pick: usize, raw: u64) -> u64 {
    let table = TriggerTable::LEN as u64;
    let edges = [
        0,
        1,
        table - 1,
        table,
        table + 1,
        (1 << 53) - 1,
        (1 << 53) + 1,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
    ];
    edges.get(pick).copied().unwrap_or(raw)
}

/// Restores `snap` (directly and through its JSON); a cluster that
/// comes back passes its invariants and takes `steps` steps of events.
fn restore_and_run(snap: &ClusterSnapshot, steps: usize, seed: u64) -> Result<(), TestCaseError> {
    let via_json = ClusterSnapshot::from_json(&snap.to_json()).ok();
    for snap in std::iter::once(snap).chain(via_json.as_ref()) {
        let Ok(mut cluster) = Cluster::restore(snap) else {
            continue;
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for t in 0..steps {
            cluster.step(&events(&mut rng, snap.n));
            if let Err(err) = cluster.check_invariants() {
                return Err(TestCaseError::fail(format!("step {t}: {err}")));
            }
        }
    }
    Ok(())
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

/// The row sum of one processor's `d` wrapped (or panicked in a debug
/// build) while its record was built.
#[test]
fn restore_refuses_a_row_whose_sum_overflows() {
    let mut snap = sample(2, 1);
    snap.d[0] = vec![u64::MAX, 1];
    let err = Cluster::restore(&snap).err().expect("refused");
    assert!(err.contains("proc 0") && err.contains("d row"), "{err}");
    let mut snap = sample(2, 1);
    snap.b[1] = vec![1, u64::MAX];
    let err = Cluster::restore(&snap).err().expect("refused");
    assert!(err.contains("proc 1") && err.contains("b row"), "{err}");
    // Rows that fit, whose class totals do not.
    let mut snap = sample(2, 1);
    snap.d = vec![vec![1 << 63, 0], vec![1 << 63, 0]];
    assert!(Cluster::restore(&snap).is_err());
}

/// A snapshot holding what its type does not is refused, each naming
/// the key: an unknown top-level key, a `metrics` that is no object and
/// a misspelt counter.  All three used to restore, the last two with
/// every counter (or the misspelt one) zero.
#[test]
fn a_snapshot_with_keys_it_does_not_hold_is_refused() {
    let mut snap = sample(3, 5);
    snap.metrics.balance_ops = 25;
    let text = snap.to_json();
    assert_eq!(
        ClusterSnapshot::from_json(&text)
            .unwrap()
            .metrics
            .balance_ops,
        25
    );
    let Json::Obj(fields) = Json::parse(&text).unwrap() else {
        unreachable!("a snapshot is an object")
    };
    let refused = |fields: Vec<(String, Json)>| {
        ClusterSnapshot::from_json(&Json::Obj(fields).render()).unwrap_err()
    };
    fn metrics(fields: &mut [(String, Json)]) -> &mut Json {
        &mut fields.iter_mut().find(|(k, _)| k == "metrics").unwrap().1
    }

    let mut stray = fields.clone();
    stray.push(("rng_sede".into(), Json::Int(1)));
    let err = refused(stray);
    assert!(err.starts_with("unknown key \"rng_sede\""), "{err}");

    let mut five = fields.clone();
    *metrics(&mut five) = Json::Int(5);
    assert_eq!(
        refused(five),
        "field 'metrics': expected an object, got Int(5)"
    );

    let mut misspelt = fields;
    let Json::Obj(counters) = metrics(&mut misspelt) else {
        unreachable!("metrics is an object")
    };
    counters[0].0 = "balance_opz".into();
    let err = refused(misspelt);
    assert!(
        err.starts_with("field 'metrics': unknown key \"balance_opz\""),
        "{err}"
    );
}

proptest! {
    /// Arbitrary bytes, and valid documents with a byte range
    /// overwritten.
    #[test]
    fn arbitrary_bytes_never_panic_restore(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        n in 2usize..5,
        at in any::<usize>(),
    ) {
        if let Ok(snap) = ClusterSnapshot::from_json(&String::from_utf8_lossy(&bytes)) {
            Cluster::restore(&snap).ok();
        }
        let mut doc = sample(n, 7).to_json().into_bytes();
        let at = at % doc.len();
        let end = (at + bytes.len()).min(doc.len());
        doc.splice(at..end, bytes.iter().copied());
        if let Ok(snap) = ClusterSnapshot::from_json(&String::from_utf8_lossy(&doc)) {
            restore_and_run(&snap, 0, 1)?;
        }
    }

    /// One field of a valid document gets another value (`op` 0;
    /// `nested` puts it inside an array or object field), is dropped (1)
    /// or has its key misspelt (2).  A refusal names the key.
    #[test]
    fn mutated_documents_fail_by_key(
        field in any::<usize>(),
        op in 0usize..3,
        which in 0usize..9,
        nested in any::<bool>(),
    ) {
        let Json::Obj(mut fields) = Json::parse(&sample(3, 5).to_json()).unwrap() else {
            unreachable!("a snapshot is an object")
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
            _ => fields[i].0.push('x'),
        }
        let doc = Json::Obj(fields).render();
        match ClusterSnapshot::from_json(&doc) {
            Err(err) => prop_assert!(err.contains(&format!("'{key}'")), "{err}\n    in {doc}"),
            Ok(snap) => restore_and_run(&snap, 5, 2)?,
        }
    }

    /// One part of a valid snapshot's state is changed: a matrix entry
    /// (0, 1) or column (2), an `l_old` (3), a ledger entry (4), a load
    /// raised consistently with its ledger (5), a shape (6), the
    /// parameters (7) or a counter (8).
    #[test]
    fn mutated_snapshots_fail_or_run(
        n in 2usize..6,
        seed in 0u64..1000,
        op in 0usize..9,
        who in any::<usize>(),
        pick in 0usize..14,
        raw in any::<u64>(),
    ) {
        let mut snap = sample(n, seed);
        let (i, c) = (who % n, who / n % n);
        let v = value(pick, raw);
        match op {
            0 => snap.d[i][c] = v,
            1 => snap.b[i][c] = v,
            2 => snap.d.iter_mut().for_each(|row| row[c] = v),
            3 => snap.l_old[i] = v,
            4 => [&mut snap.fresh_generated, &mut snap.direct_consumed, &mut snap.settled]
                [c % 3][i] = v,
            5 => {
                let k = v >> 24;
                snap.d[i][i] += k;
                snap.fresh_generated[i] += k;
                snap.initial_total += k;
            }
            6 => match pick % 4 {
                0 => drop(snap.d.pop()),
                1 => drop(snap.b[i].pop()),
                2 => snap.d[i].push(v),
                _ => drop(snap.l_old.pop()),
            },
            7 => match pick % 4 {
                0 => snap.n = (v % 8) as usize,
                1 => snap.delta = (v % 8) as usize,
                2 => snap.f = [f64::NAN, f64::INFINITY, 0.5, 1.0, 1.999, 7.9][c % 6],
                _ => snap.c_borrow = v as usize,
            },
            _ => {
                snap.metrics.generated = v;
                snap.metrics.consumed = v.wrapping_sub(raw % 4);
                snap.initial_total = raw % 4;
            }
        }
        restore_and_run(&snap, if op == 8 { 0 } else { 10 }, seed)?;
    }
}
