//! Lock-free fast path for literal-name metrics.
//!
//! The general registry ([`crate::metrics::Registry`]) serializes every
//! hit through one mutex and a `BTreeMap` walk — fine for a scrape, too
//! expensive for a counter inside a power-bisection probe. Literal-name
//! call sites (`counter!("power.evaluate.calls")`, `span!("power.max_qubits")`)
//! don't need a map at runtime: the name is known at compile time, so the
//! macro plants a per-call-site `static` handle that *interns* its slot
//! on first use and afterwards costs one relaxed atomic op (counters,
//! gauges) or one uncontended per-name mutex (span stats).
//!
//! Slots are leaked `&'static` allocations: the population is bounded by
//! the number of literal metric names in the compiled program. Interning
//! dedups by name, so two call sites bumping the same counter share one
//! slot and totals stay exact. [`crate::snapshot`] merges these slots
//! into the slow-path registry's snapshot and [`crate::reset`] clears
//! them, so exporters, tests, and the admin plane keep seeing a single
//! namespace regardless of which path recorded a series.
//!
//! With the `obs` feature compiled out the handles still exist (macro
//! expansions in dependent crates must type-check) but nothing ever
//! calls them: every macro guards on [`crate::enabled`], which is then a
//! constant `false`.

use crate::metrics::{Snapshot, SpanStats};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Interned counter cells, keyed by literal name.
static COUNTERS: Mutex<Vec<(&'static str, &'static AtomicU64)>> = Mutex::new(Vec::new());

/// Interned gauge cells, keyed by literal name.
static GAUGES: Mutex<Vec<(&'static str, &'static GaugeCell)>> = Mutex::new(Vec::new());

/// Interned span-stat cells, keyed by literal name.
static SPANS: Mutex<Vec<(&'static str, &'static Mutex<SpanStats>)>> = Mutex::new(Vec::new());

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A gauge value plus a "was ever set" flag (so an interned-but-unset
/// gauge stays out of snapshots, mirroring slow-path semantics where a
/// series only exists after its first write).
#[derive(Debug)]
struct GaugeCell {
    bits: AtomicU64,
    set: AtomicBool,
}

fn intern_counter(name: &'static str) -> &'static AtomicU64 {
    let mut table = lock(&COUNTERS);
    if let Some((_, cell)) = table.iter().find(|(n, _)| *n == name) {
        return cell;
    }
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    table.push((name, cell));
    cell
}

fn intern_gauge(name: &'static str) -> &'static GaugeCell {
    let mut table = lock(&GAUGES);
    if let Some((_, cell)) = table.iter().find(|(n, _)| *n == name) {
        return cell;
    }
    let cell: &'static GaugeCell =
        Box::leak(Box::new(GaugeCell { bits: AtomicU64::new(0), set: AtomicBool::new(false) }));
    table.push((name, cell));
    cell
}

#[cfg_attr(not(feature = "obs"), allow(dead_code))]
fn intern_span(name: &'static str) -> &'static Mutex<SpanStats> {
    let mut table = lock(&SPANS);
    if let Some((_, cell)) = table.iter().find(|(n, _)| *n == name) {
        return cell;
    }
    let cell: &'static Mutex<SpanStats> = Box::leak(Box::new(Mutex::new(SpanStats::empty())));
    table.push((name, cell));
    cell
}

/// Macro plumbing: the per-call-site handle behind `counter!("name")`.
/// One relaxed `fetch_add` per hit once the slot is interned.
#[doc(hidden)]
#[derive(Debug)]
pub struct FastCounter {
    name: &'static str,
    slot: OnceLock<&'static AtomicU64>,
}

impl FastCounter {
    #[doc(hidden)]
    #[must_use]
    pub const fn new(name: &'static str) -> FastCounter {
        FastCounter { name, slot: OnceLock::new() }
    }

    #[doc(hidden)]
    #[inline]
    pub fn add(&self, delta: u64) {
        let slot = *self.slot.get_or_init(|| intern_counter(self.name));
        slot.fetch_add(delta, Ordering::Relaxed);
        // Literal counters also feed the flight recorder when armed
        // (same contract as the slow path's `counter_add_traced`).
        crate::trace::counter_event(self.name, delta);
    }
}

/// Macro plumbing: the per-call-site handle behind `gauge!("name", v)`.
#[doc(hidden)]
#[derive(Debug)]
pub struct FastGauge {
    name: &'static str,
    slot: OnceLock<&'static GaugeCell>,
}

impl FastGauge {
    #[doc(hidden)]
    #[must_use]
    pub const fn new(name: &'static str) -> FastGauge {
        FastGauge { name, slot: OnceLock::new() }
    }

    #[doc(hidden)]
    #[inline]
    pub fn set(&self, value: f64) {
        let slot = *self.slot.get_or_init(|| intern_gauge(self.name));
        slot.bits.store(value.to_bits(), Ordering::Relaxed);
        slot.set.store(true, Ordering::Release);
    }
}

/// Macro plumbing: the per-call-site handle behind `span!("name")`; the
/// guard records into this slot's own mutex instead of the registry.
#[doc(hidden)]
#[derive(Debug)]
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub struct SpanSlot {
    name: &'static str,
    slot: OnceLock<&'static Mutex<SpanStats>>,
}

impl SpanSlot {
    #[doc(hidden)]
    #[must_use]
    pub const fn new(name: &'static str) -> SpanSlot {
        SpanSlot { name, slot: OnceLock::new() }
    }

    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    pub(crate) fn record(&self, total_ns: u64, self_ns: u64) {
        let slot = *self.slot.get_or_init(|| intern_span(self.name));
        let mut stats = lock(slot);
        stats.count += 1;
        stats.total_ns += total_ns;
        stats.self_ns += self_ns;
        stats.durations.observe(total_ns as f64);
    }
}

/// Folds every live fast-path slot into `snap`, preserving the
/// deterministic name ordering the slow-path snapshot guarantees. Zero
/// counters and never-set gauges are skipped (a series exists only once
/// it has recorded), and a name present on both paths is combined —
/// summed for counters and span stats, fast-write-wins for gauges.
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub(crate) fn merge(snap: &mut Snapshot) {
    for (name, cell) in lock(&COUNTERS).iter() {
        let v = cell.load(Ordering::Relaxed);
        if v == 0 {
            continue;
        }
        match snap.counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => snap.counters[i].1 += v,
            Err(i) => snap.counters.insert(i, ((*name).to_owned(), v)),
        }
    }
    for (name, cell) in lock(&GAUGES).iter() {
        if !cell.set.load(Ordering::Acquire) {
            continue;
        }
        let v = f64::from_bits(cell.bits.load(Ordering::Relaxed));
        match snap.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => snap.gauges[i].1 = v,
            Err(i) => snap.gauges.insert(i, ((*name).to_owned(), v)),
        }
    }
    for (name, cell) in lock(&SPANS).iter() {
        let stats = lock(cell).clone();
        if stats.count == 0 {
            continue;
        }
        match snap.spans.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => {
                let merged = &mut snap.spans[i].1;
                merged.count += stats.count;
                merged.total_ns += stats.total_ns;
                merged.self_ns += stats.self_ns;
                merged.durations.merge_from(&stats.durations);
            }
            Err(i) => snap.spans.insert(i, ((*name).to_owned(), stats)),
        }
    }
}

/// Clears every fast-path slot (the [`crate::reset`] counterpart of
/// [`merge`]). Slots stay interned — only their contents reset.
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub(crate) fn reset() {
    for (_, cell) in lock(&COUNTERS).iter() {
        cell.store(0, Ordering::Relaxed);
    }
    for (_, cell) in lock(&GAUGES).iter() {
        cell.set.store(false, Ordering::Relaxed);
        cell.bits.store(0, Ordering::Relaxed);
    }
    for (_, cell) in lock(&SPANS).iter() {
        *lock(cell) = SpanStats::empty();
    }
}

#[cfg(test)]
#[cfg(feature = "obs")]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_by_name_across_call_sites() {
        static A: FastCounter = FastCounter::new("fastpath.test.shared");
        static B: FastCounter = FastCounter::new("fastpath.test.shared");
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        A.add(2);
        B.add(3);
        let snap = crate::snapshot();
        assert_eq!(snap.counter("fastpath.test.shared"), Some(5));
        crate::reset();
        assert_eq!(crate::snapshot().counter("fastpath.test.shared"), None);
    }

    #[test]
    fn merge_combines_fast_and_slow_series() {
        static FAST: FastCounter = FastCounter::new("fastpath.test.both");
        static GAUGE: FastGauge = FastGauge::new("fastpath.test.gauge");
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        FAST.add(4);
        crate::counter_add("fastpath.test.both", 6); // slow path, same name
        GAUGE.set(2.5);
        let snap = crate::snapshot();
        assert_eq!(snap.counter("fastpath.test.both"), Some(10));
        assert_eq!(snap.gauge("fastpath.test.gauge"), Some(2.5));
        // Snapshot stays deterministically sorted after the merge.
        let mut names: Vec<&String> = snap.counters.iter().map(|(n, _)| n).collect();
        let sorted = names.clone();
        names.sort();
        assert_eq!(names, sorted);
        crate::reset();
    }

    #[test]
    fn span_slots_accumulate_and_reset() {
        static SLOT: SpanSlot = SpanSlot::new("fastpath.test.span");
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        SLOT.record(10, 10);
        SLOT.record(30, 20);
        let snap = crate::snapshot();
        let stats = snap.span("fastpath.test.span").expect("span merged");
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total_ns, 40);
        assert_eq!(stats.self_ns, 30);
        assert_eq!(stats.durations.count(), 2);
        crate::reset();
        assert!(crate::snapshot().span("fastpath.test.span").is_none());
    }
}
