//! Timing decorators for the simulator's public extension traits.
//!
//! Each decorator wraps a boxed [`Router`], [`AutoscalePolicy`] or
//! [`TraceSource`], delegates every method unchanged, and adds the wall
//! time of the one hot method (`route`, `decide`, `next_arrival`) to a
//! shared [`Span`]. The simulator never learns it is being watched: the
//! decorated run must reproduce the plain run's simulated digest, which
//! `tests/traced_equivalence.rs` pins for every workload.
//!
//! The time recorded per call includes one `Instant::now()` pair, so the
//! per-call figures of very cheap layers carry that fixed cost; the
//! traced run's overall overhead is reported as `tracing.overhead_frac`.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use faas::cluster::{HostLoad, Router};
use faas::fleet::{AutoscalePolicy, FleetView, ScaleDecision};
use workloads::{Arrival, FunctionKind, TraceError, TraceSource};

/// Call count and accumulated wall time at one layer boundary.
#[derive(Default)]
pub struct Span {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl Span {
    /// A fresh span, shared between a decorator and the code reading it
    /// after the run consumed the decorator.
    pub fn shared() -> Rc<Span> {
        Rc::new(Span::default())
    }

    /// Runs `f`, counting the call and its wall time.
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.nanos
            .set(self.nanos.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Calls made through the decorator.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Wall seconds spent inside the wrapped calls.
    pub fn secs(&self) -> f64 {
        self.nanos.get() as f64 * 1e-9
    }
}

/// A [`Router`] whose `route` calls are timed.
pub struct TimedRouter {
    pub inner: Box<dyn Router>,
    pub span: Rc<Span>,
}

impl Router for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn needs_loads(&self) -> bool {
        self.inner.needs_loads()
    }

    fn route(&mut self, tenant: usize, hosts: &[HostLoad]) -> usize {
        let inner = &mut self.inner;
        self.span.time(|| inner.route(tenant, hosts))
    }
}

/// An [`AutoscalePolicy`] whose `decide` calls are timed.
pub struct TimedPolicy {
    pub inner: Box<dyn AutoscalePolicy>,
    pub span: Rc<Span>,
}

impl AutoscalePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn period_s(&self) -> Option<f64> {
        self.inner.period_s()
    }

    fn decide(&mut self, view: &FleetView) -> ScaleDecision {
        let inner = &mut self.inner;
        self.span.time(|| inner.decide(view))
    }
}

/// A [`TraceSource`] whose `next_arrival` calls are timed.
pub struct TimedSource {
    pub inner: Box<dyn TraceSource>,
    pub span: Rc<Span>,
}

impl TraceSource for TimedSource {
    fn kinds(&self) -> &[FunctionKind] {
        self.inner.kinds()
    }

    fn next_arrival(&mut self) -> Result<Option<Arrival>, TraceError> {
        let inner = &mut self.inner;
        self.span.time(|| inner.next_arrival())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas::cluster::{LeastLoaded, RoundRobin};
    use faas::fleet::{FixedFleet, SlamSlo};

    #[test]
    fn decorators_delegate_the_untimed_methods() {
        let span = Span::shared();
        for inner in [
            Box::new(RoundRobin::default()) as Box<dyn Router>,
            Box::new(LeastLoaded),
        ] {
            let (name, loads) = (inner.name(), inner.needs_loads());
            let r = TimedRouter {
                inner,
                span: span.clone(),
            };
            assert_eq!((r.name(), r.needs_loads()), (name, loads));
        }
        for inner in [
            Box::new(FixedFleet) as Box<dyn AutoscalePolicy>,
            Box::new(SlamSlo::default_policy()),
        ] {
            let (name, period) = (inner.name(), inner.period_s());
            let p = TimedPolicy {
                inner,
                span: span.clone(),
            };
            assert_eq!((p.name(), p.period_s()), (name, period));
        }
        assert_eq!(span.calls(), 0, "only the hot methods are timed");
    }

    #[test]
    fn span_counts_calls() {
        let span = Span::default();
        assert_eq!(span.time(|| 7), 7);
        span.time(|| ());
        assert_eq!(span.calls(), 2);
        assert!(span.secs() >= 0.0);
    }
}
