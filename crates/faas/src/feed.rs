//! The pull-based arrival feed: the fleet engine draws arrivals lazily
//! instead of pre-pushing the whole workload into the event queue.
//!
//! Pre-pushing costs O(total invocations) queue memory up front — fine
//! for synthetic minute-scale traces, fatal for multi-day replays with
//! millions of invocations. Every run feeds its arrivals through one
//! [`TraceSource`]: a file-backed replay streams from disk, and
//! generated per-tenant lists are merged by
//! [`workloads::MaterializedSource`]. The run loop merges the feed with
//! the event queue one arrival at a time, so queue memory stays
//! O(pending events).
//!
//! # Byte-identity with the pre-push era
//!
//! The old constructors pushed arrivals tenant-major *before* any other
//! event, so at any tick the arrivals held the lowest sequence numbers
//! and popped first, in tenant order then FIFO. The merge reproduces
//! that exactly: a fed arrival is processed whenever its time is `<=`
//! the queue's next tick (the arrival wins ties), and sources yield in
//! `(t_ns, tenant, position)` order — the same total order the queue's
//! `(time, seq)` tie-break produced. The `golden` and `topology_golden`
//! suites pin this.

use sim_core::{SimDuration, SimTime};
use workloads::TraceSource;

/// A [`TraceSource`] with a one-arrival lookahead, cut off at the
/// horizon, yielding `(time, tenant)` in non-decreasing time order.
pub(crate) struct ArrivalStream {
    source: Box<dyn TraceSource>,
    origin: String,
    duration_ns: u64,
    next: Option<(SimTime, usize)>,
    primed: bool,
    injected: u64,
}

impl ArrivalStream {
    /// A feed over `source` that ends at the first arrival at or past
    /// `duration_s`. `origin` names the source (a trace's path) in
    /// mid-run parse panics; traces are expected to be validated up
    /// front, so an error here means the file changed underneath the
    /// run.
    pub fn new(
        source: Box<dyn TraceSource>,
        duration_s: f64,
        origin: impl Into<String>,
    ) -> ArrivalStream {
        ArrivalStream {
            source,
            origin: origin.into(),
            duration_ns: SimDuration::from_secs_f64(duration_s).0,
            next: None,
            primed: false,
            injected: 0,
        }
    }

    /// The next arrival's `(time, tenant)` without consuming it.
    pub fn peek(&mut self) -> Option<(SimTime, usize)> {
        if !self.primed {
            self.primed = true;
            self.refill();
        }
        self.next
    }

    /// Consumes and returns the next arrival.
    pub fn pop(&mut self) -> Option<(SimTime, usize)> {
        let next = self.peek();
        if next.is_some() {
            self.next = None;
            self.injected += 1;
            self.refill();
        }
        next
    }

    /// Arrivals handed to the simulator so far — the offered-load count
    /// and the feed's share of `events_processed`.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    fn refill(&mut self) {
        match self.source.next_arrival() {
            Ok(Some(a)) => {
                // Sources yield non-decreasing times, so the first
                // arrival past the horizon ends the feed.
                if a.t_ns < self.duration_ns {
                    self.next = Some((SimTime(a.t_ns), a.tenant));
                } else {
                    self.next = None;
                }
            }
            Ok(None) => self.next = None,
            Err(e) => panic!(
                "trace {}: {e} (mid-run parse failure — the trace was \
                 validated before the run, so the file changed underneath it)",
                self.origin
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Arrival, FunctionKind, MaterializedSource, TenantLoad, TraceError};

    fn drain(mut f: ArrivalStream) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        while let Some((at, tenant)) = f.pop() {
            out.push((at.0, tenant));
        }
        assert_eq!(f.injected(), out.len() as u64);
        out
    }

    struct FakeSource {
        kinds: Vec<FunctionKind>,
        arrivals: std::vec::IntoIter<Arrival>,
    }

    impl TraceSource for FakeSource {
        fn kinds(&self) -> &[FunctionKind] {
            &self.kinds
        }

        fn next_arrival(&mut self) -> Result<Option<Arrival>, TraceError> {
            Ok(self.arrivals.next())
        }
    }

    #[test]
    fn stream_feed_cuts_off_at_the_horizon() {
        let mk = |t_ns: u64, tenant: usize| Arrival {
            t_ns,
            function: FunctionKind::Html,
            tenant,
            duration_s: None,
            memory_bytes: None,
        };
        let source = FakeSource {
            kinds: vec![FunctionKind::Html],
            arrivals: vec![mk(5, 0), mk(7, 1), mk(2_000_000_000, 0)].into_iter(),
        };
        let feed = ArrivalStream::new(Box::new(source), 2.0, "test");
        assert_eq!(drain(feed), vec![(5, 0), (7, 1)]);
    }

    #[test]
    fn materialized_lists_stop_at_the_horizon() {
        let source = MaterializedSource::new(vec![
            TenantLoad {
                kind: FunctionKind::Html,
                arrivals: vec![1.0, 5.0, 9.0],
            },
            TenantLoad {
                kind: FunctionKind::Html,
                arrivals: vec![4.5, 6.0],
            },
        ]);
        let feed = ArrivalStream::new(Box::new(source), 5.0, "test");
        let ns = |s: f64| SimDuration::from_secs_f64(s).0;
        assert_eq!(
            drain(feed),
            vec![(ns(1.0), 0), (ns(4.5), 1)],
            "t >= duration_s dropped, from every tenant"
        );
    }
}
