//! Property tests: every `TraceEvent` survives event → JSONL → event,
//! the re-rendered line is byte-identical to the first rendering (the
//! invariant the CI trace-schema gate relies on), and the line is
//! exactly `dlb-json`'s compact canonical form.

use dlb_json::Json;
use dlb_trace::TraceEvent;
use proptest::prelude::*;
use std::borrow::Cow;

/// Arbitrary text from raw draws (the vendored proptest has no `char`
/// strategy): every other character comes from the first 128 code
/// points — controls, quotes, backslash — the rest from all of Unicode.
fn text(draws: &[u32]) -> String {
    draws
        .iter()
        .map(|&d| {
            let code = (d >> 1) % if d & 1 == 0 { 0x80 } else { 0x11_0000 };
            char::from_u32(code).unwrap_or('\u{fffd}') // a surrogate
        })
        .collect()
}

fn check(ev: TraceEvent) -> Result<(), TestCaseError> {
    let line = ev.to_line();
    let back = TraceEvent::from_line(&line)
        .map_err(|e| TestCaseError::fail(format!("parse failed: {e} on {line}")))?;
    prop_assert_eq!(&ev, &back, "value round-trip, line: {}", line);
    prop_assert_eq!(&line, &back.to_line(), "byte round-trip");
    let canonical = Json::parse(&line).map_err(TestCaseError::fail)?.render();
    prop_assert_eq!(&line, &canonical, "dlb-json's compact form");
    let mut appended = b"kept".to_vec();
    ev.write_line(&mut appended);
    prop_assert_eq!(appended, format!("kept{line}").into_bytes(), "append");
    Ok(())
}

proptest! {
    #[test]
    fn run_started_round_trips(
        run in any::<u64>(),
        seed in any::<u64>(),
        n in any::<u64>(),
        strategy in prop::collection::vec(any::<u32>(), 0..12),
        delta in any::<u64>(),
        // Mix fractional and whole-valued f (whole f64s render as bare
        // integers and must decode back losslessly).
        f_int in 0u32..8,
        f_frac in 0f64..1.0,
        whole in any::<bool>(),
        c in any::<u64>(),
    ) {
        let f = f_int as f64 + if whole { 0.0 } else { f_frac };
        check(TraceEvent::RunStarted {
            run, seed, n,
            strategy: text(&strategy),
            delta, f, c,
        })?;
    }

    #[test]
    fn balance_initiated_round_trips(
        step in any::<u64>(),
        initiator in any::<u64>(),
        partners in prop::collection::vec(any::<u64>(), 0..8),
        t_int in 0u32..1000,
        t_frac in 0f64..1.0,
        whole in any::<bool>(),
    ) {
        let trigger = t_int as f64 + if whole { 0.0 } else { t_frac };
        check(TraceEvent::BalanceInitiated { step, initiator, partners, trigger })?;
    }

    #[test]
    fn packets_migrated_round_trips(
        step in any::<u64>(),
        initiator in any::<u64>(),
        count in any::<u64>(),
    ) {
        check(TraceEvent::PacketsMigrated { step, initiator, count })?;
    }

    #[test]
    fn marker_moved_round_trips(
        step in any::<u64>(),
        initiator in any::<u64>(),
        count in any::<u64>(),
    ) {
        check(TraceEvent::MarkerMoved { step, initiator, count })?;
    }

    #[test]
    fn fault_injected_round_trips(
        step in any::<u64>(),
        proc in any::<u64>(),
        kind in prop::collection::vec(any::<u32>(), 0..12),
    ) {
        check(TraceEvent::FaultInjected { step, proc, kind: text(&kind).into() })?;
    }

    #[test]
    fn crash_recovered_round_trips(step in any::<u64>(), proc in any::<u64>()) {
        check(TraceEvent::CrashRecovered { step, proc })?;
    }

    #[test]
    fn step_profile_round_trips(
        step in any::<u64>(),
        wall_ns in any::<u64>(),
        ops in any::<u64>(),
    ) {
        check(TraceEvent::StepProfile { step, wall_ns, ops })?;
    }

    #[test]
    fn step_delta_round_trips(
        step in any::<u64>(),
        picks in prop::collection::vec(
            (prop::collection::vec(any::<u32>(), 0..4), any::<u64>()),
            0..6,
        ),
    ) {
        // One entry per distinct counter, like the emitter produces
        // (duplicate object keys would not survive a round-trip).
        let mut seen = std::collections::HashSet::new();
        let counters: Vec<(Cow<'static, str>, u64)> = picks
            .into_iter()
            .map(|(name, v)| (Cow::<str>::Owned(text(&name)), v))
            .filter(|(name, _)| seen.insert(name.clone()))
            .collect();
        check(TraceEvent::StepDelta { step, counters })?;
    }

    #[test]
    fn load_sample_round_trips(
        step in any::<u64>(),
        min in any::<u64>(),
        max in any::<u64>(),
        total in any::<u64>(),
    ) {
        check(TraceEvent::LoadSample { step, min, max, total })?;
    }

    #[test]
    fn request_routed_round_trips(
        step in any::<u64>(),
        req in any::<u64>(),
        shard in any::<u64>(),
    ) {
        check(TraceEvent::RequestRouted { step, req, shard })?;
    }

    #[test]
    fn request_completed_round_trips(
        step in any::<u64>(),
        req in any::<u64>(),
        shard in any::<u64>(),
        latency_ticks in any::<u64>(),
    ) {
        check(TraceEvent::RequestCompleted { step, req, shard, latency_ticks })?;
    }

    #[test]
    fn requests_redirected_round_trips(
        step in any::<u64>(),
        from in any::<u64>(),
        to in any::<u64>(),
        count in any::<u64>(),
    ) {
        check(TraceEvent::RequestsRedirected { step, from, to, count })?;
    }

    #[test]
    fn acceptor_handoff_round_trips(
        step in any::<u64>(),
        from in any::<u64>(),
        to in any::<u64>(),
        count in any::<u64>(),
    ) {
        check(TraceEvent::AcceptorHandoff { step, from, to, count })?;
    }

    #[test]
    fn arena_contender_round_trips(
        run in any::<u64>(),
        label in prop::collection::vec(any::<u32>(), 0..12),
        strategy in prop::collection::vec(any::<u32>(), 0..12),
        seed in any::<u64>(),
    ) {
        check(TraceEvent::ArenaContender {
            run,
            label: text(&label),
            strategy: text(&strategy),
            seed,
        })?;
    }

    #[test]
    fn run_finished_round_trips(run in any::<u64>()) {
        check(TraceEvent::RunFinished { run })?;
    }
}
