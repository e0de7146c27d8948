//! The `rng.*` tallies are handles (`finbench_rng::counters`) and must
//! count exactly what the by-name adds they replaced counted: per name, in
//! the process-wide registry while counters are on, and in each handle's
//! own cell always. One test in its own binary: it pins the
//! process-global filter and asserts equality on process-wide values.

use finbench_rng::counters::{NORMAL_DRAWS, STREAMS_CREATED, UNIFORM_DRAWS};
use finbench_rng::normal::fill_standard_normal_icdf;
use finbench_rng::uniform::{fill_uniform, fill_uniform_range};
use finbench_rng::StreamFamily;
use finbench_telemetry::{self as telemetry, Counter};
use std::sync::LazyLock;

static TALLIES: [(&str, &LazyLock<Counter>); 3] = [
    ("rng.streams_created", &STREAMS_CREATED),
    ("rng.uniform_draws", &UNIFORM_DRAWS),
    ("rng.normal_draws", &NORMAL_DRAWS),
];

/// What `f` added to each tally: `(process-wide by name, handle's own)`.
fn added(f: impl FnOnce()) -> [(u64, u64); 3] {
    let read = || TALLIES.map(|(name, h)| (telemetry::counter_value(name), h.get()));
    let before = read();
    f();
    let after = read();
    std::array::from_fn(|i| (after[i].0 - before[i].0, after[i].1 - before[i].1))
}

#[test]
fn every_stream_and_fill_adds_exactly_its_count_by_name_and_by_handle() {
    let fam = StreamFamily::new(7);
    let mut rng = fam.stream(0);
    let mut buf = vec![0.0; 1000];
    for (filter, by_name) in [("all", 1), ("off", 0)] {
        telemetry::set_filter(filter);
        // The two scopes of one event: the name moves only while counters
        // are on, the handle's own cell always.
        let both = |n: u64| (n * by_name, n);
        let streams = added(|| {
            for id in 0..5 {
                fam.stream(id);
            }
        });
        assert_eq!(streams, [both(5), (0, 0), (0, 0)], "filter {filter}");
        let uniform = added(|| fill_uniform(&mut rng, &mut buf[..100]));
        assert_eq!(uniform, [(0, 0), both(100), (0, 0)], "filter {filter}");
        let range = added(|| fill_uniform_range(&mut rng, &mut buf[..300], -1.0, 1.0));
        assert_eq!(range, [(0, 0), both(300), (0, 0)], "filter {filter}");
        let normal = added(|| fill_standard_normal_icdf(&mut rng, &mut buf));
        assert_eq!(normal, [(0, 0), (0, 0), both(1000)], "filter {filter}");
    }
    telemetry::set_filter("all");
}
