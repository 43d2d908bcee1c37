//! Misused profiler scopes are detected, not silently misattributed.
//!
//! `telemetry::profile` keeps one stack of open scopes per thread. A guard
//! dropped while a scope opened after it is still open used to pop that
//! later scope's frame instead of its own, swapping the two durations and
//! leaving every later scope under the wrong parent. Now each guard knows
//! its depth: such a drop is counted as `profile.misnested`, records its
//! own duration under its own path, and leaves the stack consistent.
//!
//! This file is its own test binary, so nothing else resets the
//! process-wide profiler or counters while it runs.

use freerider::telemetry::{self, profile};
use std::time::Duration;

#[test]
fn out_of_order_drops_are_counted_and_attributed_to_their_own_scopes() {
    profile::set_enabled(true);
    profile::reset();
    telemetry::reset();

    // In-order use never trips the counter.
    {
        let _root = profile::scope("ok.root");
        let _child = profile::scope("child");
    }
    assert_eq!(telemetry::snapshot().counter(profile::MISNESTED), 0);

    let parent = profile::scope("mis.parent");
    let child = profile::scope("child");
    drop(parent); // out of order: `child` is still open
    {
        // Opened while `child` is open, so it nests under it.
        let _inner = profile::scope("inner");
    }
    std::thread::sleep(Duration::from_millis(30));
    drop(child);
    {
        // The stack is clean again: this is a root.
        let _after = profile::scope("mis.after");
    }
    let data = profile::report();
    profile::set_enabled(false);

    assert_eq!(telemetry::snapshot().counter(profile::MISNESTED), 1);
    for path in [
        "ok.root",
        "ok.root/child",
        "mis.parent",
        "mis.parent/child",
        "mis.parent/child/inner",
        "mis.after",
    ] {
        assert_eq!(data.get(path).map(|s| s.count), Some(1), "{path}");
    }
    assert_eq!(data.len(), 6, "unexpected paths: {:?}", data.keys());
    // Each duration is its own: the child spans the 30 ms sleep, the
    // parent was dropped before it.
    let (parent_ns, child_ns) = (
        data["mis.parent"].total_ns,
        data["mis.parent/child"].total_ns,
    );
    assert!(child_ns >= 30_000_000, "child {child_ns} ns");
    assert!(
        parent_ns < child_ns,
        "parent {parent_ns} ns, child {child_ns} ns"
    );
}
