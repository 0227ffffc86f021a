//! Self-tests of the benchmark: the seam decorators change no
//! deterministic output, the repository's pinned counters hold through
//! them, and the layer-sum check catches double counting.

use wfa::obs::metrics::Counter;

use crate::report::Layers;
use crate::seams::{self, Span, Totals};
use crate::workloads::{job_seed, pinned_ksa, run_job, Counts, Mode, Workload};

fn sent(c: &Counts, gossip: bool) -> u64 {
    let snap = if gossip { &c.gossip } else { &c.abd };
    snap.counter(Counter::NetMsgsSent.name())
        .expect("counter present")
}

/// One test, because the span accumulators are process-wide.
#[test]
fn decorators_are_transparent_and_pins_hold() {
    for w in Workload::ALL {
        // Job 3 of `fault_search` adds the injected-bug soak.
        for index in [0, 3] {
            let seed = job_seed(7, index);
            let run = |mode| {
                run_job(w, seed, index, mode, &mut Counts::default())
                    .unwrap_or_else(|e| panic!("{} job {index} ({mode:?}): {e}", w.name()))
            };
            let (plain, counted, traced) =
                (run(Mode::Disabled), run(Mode::Counters), run(Mode::Traced));
            assert_eq!(
                plain.outputs,
                traced.outputs,
                "{}: decorators changed outputs",
                w.name()
            );
            assert_eq!(
                counted.outputs,
                traced.outputs,
                "{}: counters changed outputs",
                w.name()
            );
            assert_eq!(
                counted.counters,
                traced.counters,
                "{}: decorators changed counters",
                w.name()
            );
        }
    }

    // The E13/E14 pins: 320 slots; 292 ops give 4672 msgs over ABD at
    // n = 4 and 2448 msgs over gossip (E18), counted through the decorators.
    for (gossip, span, msgs) in [(false, Span::Abd, 4672), (true, Span::Gossip, 2448)] {
        seams::reset();
        let mut counts = Counts::default();
        let traced = pinned_ksa(gossip, Mode::Traced, &mut counts).expect("pinned run passes");
        let plain = pinned_ksa(gossip, Mode::Disabled, &mut Counts::default()).expect("passes");
        assert_eq!(traced.outputs, plain.outputs);
        assert_eq!(counts.slots, 320);
        assert_eq!(
            seams::totals().calls(span),
            292,
            "ops through the decorator"
        );
        assert_eq!(sent(&counts, gossip), msgs);
    }
}

#[test]
fn layer_sum_check_flags_double_counting() {
    let mut t = Totals::default();
    t.nanos[Span::KernelRun as usize] = 10_000_000;
    t.nanos[Span::AlgStep as usize] = 6_000_000;
    t.nanos[Span::Abd as usize] = 4_000_000;
    let ok = Layers::new(Workload::KsaSubstrates, &t, 0.012);
    assert!(ok.check().is_ok());
    assert!(
        (ok.unattributed_ms() - 2.0).abs() < 1e-9,
        "the residual is reported, not hidden"
    );
    // Backend time larger than the steps that contain it is double counted.
    t.nanos[Span::Abd as usize] = 7_000_000;
    let bad = Layers::new(Workload::KsaSubstrates, &t, 0.012);
    assert!(bad.check().is_err());
}
