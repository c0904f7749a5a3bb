//! Property tests for the parallel sweep engine: input ordering is
//! preserved at any worker count, so a parallel sweep is bit-identical
//! to a serial one by construction.

use mb_simcore::par::{sweep, with_threads};
use mb_simcore::rng::{Rng, SplitMix64};
use proptest::prelude::*;

/// `items` labelled by position.
fn labelled(items: &[u64]) -> Vec<(String, u64)> {
    items
        .iter()
        .enumerate()
        .map(|(i, &x)| (format!("t{i}"), x))
        .collect()
}

proptest! {
    #[test]
    fn sweep_preserves_input_ordering(
        items in prop::collection::vec(0u64..1_000_000, 0..64),
        threads in 1usize..9,
    ) {
        // Each task echoes its label and input; any reordering or
        // label mix-up is visible in the output.
        let expect: Vec<(String, u64)> = labelled(&items);
        let got = with_threads(threads, || {
            sweep(
                labelled(&items).into_iter().map(|(l, x)| (l.clone(), (l, x))).collect(),
                |task| task,
            )
        });
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn parallel_equals_serial_for_stateful_tasks(
        items in prop::collection::vec(1u64..1_000, 1..48),
        seed in 0u64..u64::MAX,
    ) {
        // A task with real RNG use, seeded from its own input: results
        // must not depend on the worker count.
        let work = |x: u64| {
            let mut rng = SplitMix64::new(seed ^ x);
            (0..x % 17).map(|_| rng.next_u64() % x.max(1)).sum::<u64>()
        };
        let serial = with_threads(1, || sweep(labelled(&items), work));
        let parallel = with_threads(7, || sweep(labelled(&items), work));
        prop_assert_eq!(serial, parallel);
    }
}
