//! # san-proc — deterministic poll-driven coroutines
//!
//! The SPLASH-2 kernels in `san-apps` are real algorithms with loops,
//! branches and data; forcing them into hand-written event-machine form
//! would make them unreadable and unfaithful. Instead, each simulated
//! process is an `async` body — a *coroutine* the compiler turns into a
//! state machine: it computes with real data, and whenever it touches
//! simulated time — `compute(d)`, or a blocking protocol request — it
//! `.await`s a park that hands the step to the simulation scheduler.
//!
//! Determinism: [`Coroutine::resume`] polls the body once, on the caller's
//! thread, and returns when the body parks again or finishes. No other
//! thread and no waker exist, so execution is a deterministic interleaving
//! fully controlled by the discrete-event simulation. A panic in a body
//! unwinds out of `resume` into the simulation that resumed it.
//!
//! The request/response types are generic (`Q`/`R`): `san-svm` plugs in its
//! shared-memory operations, tests plug in toy protocols.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use san_sim::{Duration, Time};

/// What a coroutine does when it parks.
#[derive(Debug, PartialEq, Eq)]
pub enum Step<Q> {
    /// Burn CPU in the simulation for this long, then resume.
    Compute(Duration),
    /// A blocking protocol request; the scheduler decides when to resume
    /// and with what response.
    Request(Q),
    /// The coroutine's body returned.
    Done,
}

/// What the scheduler and the body exchange across one park.
struct Slot<Q, R> {
    now: Time,
    parked: Option<Step<Q>>,
    response: Option<R>,
}

/// The coroutine's side of the exchange: awaitable calls into simulation
/// time. Handed to the coroutine body on spawn.
pub struct ProcIo<Q, R> {
    slot: Rc<RefCell<Slot<Q, R>>>,
}

impl<Q, R> ProcIo<Q, R> {
    /// Current simulated time (as of the last resume).
    pub fn now(&self) -> Time {
        self.slot.borrow().now
    }

    /// Spend `d` of simulated CPU time.
    pub async fn compute(&mut self, d: Duration) {
        if d == Duration::ZERO {
            return;
        }
        self.park(Step::Compute(d)).await;
    }

    /// Issue a blocking request and wait for its response.
    pub async fn request(&mut self, q: Q) -> R {
        self.park(Step::Request(q)).await;
        self.slot
            .borrow_mut()
            .response
            .take()
            .expect("request resumed without a response value")
    }

    /// Leave `step` for the scheduler and yield to it once.
    async fn park(&mut self, step: Step<Q>) {
        self.slot.borrow_mut().parked = Some(step);
        let mut yielded = false;
        std::future::poll_fn(|_| {
            if std::mem::replace(&mut yielded, true) {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
        .await;
    }
}

/// Scheduler-side handle to one coroutine.
pub struct Coroutine<Q, R> {
    slot: Rc<RefCell<Slot<Q, R>>>,
    /// `None` once the body has returned.
    body: Option<Pin<Box<dyn Future<Output = ()>>>>,
}

impl<Q, R> Coroutine<Q, R> {
    /// Spawn `body` as a parked coroutine. Nothing runs until the first
    /// [`Coroutine::resume`].
    pub fn spawn<Fut>(body: impl FnOnce(ProcIo<Q, R>) -> Fut) -> Self
    where
        Fut: Future<Output = ()> + 'static,
    {
        let slot = Rc::new(RefCell::new(Slot {
            now: Time::ZERO,
            parked: None,
            response: None,
        }));
        let body = Box::pin(body(ProcIo { slot: slot.clone() }));
        Self {
            slot,
            body: Some(body),
        }
    }

    /// Resume the coroutine at simulated time `now`, delivering `value` as
    /// the response to its pending request (use `None` after a `Compute`
    /// park and for the first resume). Runs it until it parks again;
    /// returns how it parked.
    ///
    /// # Panics
    /// Panics if called after the coroutine finished, if the body awaits a
    /// future other than its [`ProcIo`]'s, and with the body's own panic.
    pub fn resume(&mut self, now: Time, value: Option<R>) -> Step<Q> {
        let body = self.body.as_mut().expect("resumed a finished coroutine");
        {
            let mut slot = self.slot.borrow_mut();
            slot.now = now;
            slot.response = value;
        }
        match body.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(()) => {
                self.body = None;
                Step::Done
            }
            Poll::Pending => self.slot.borrow_mut().parked.take().expect(
                "coroutine body awaited a future other than its ProcIo's compute or request",
            ),
        }
    }

    /// Has the body returned?
    pub fn finished(&self) -> bool {
        self.body.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_parks_and_resumes() {
        let mut co: Coroutine<(), ()> = Coroutine::spawn(|mut io| async move {
            io.compute(Duration::from_micros(5)).await;
            io.compute(Duration::from_micros(7)).await;
        });
        assert_eq!(
            co.resume(Time::ZERO, None),
            Step::Compute(Duration::from_micros(5))
        );
        assert_eq!(
            co.resume(Time::from_micros(5), None),
            Step::Compute(Duration::from_micros(7))
        );
        assert_eq!(co.resume(Time::from_micros(12), None), Step::Done);
        assert!(co.finished());
    }

    #[test]
    fn request_response_roundtrip() {
        let mut co: Coroutine<u32, u32> = Coroutine::spawn(|mut io| async move {
            let a = io.request(10).await;
            let b = io.request(a + 1).await;
            assert_eq!(b, 42);
        });
        let s = co.resume(Time::ZERO, None);
        assert_eq!(s, Step::Request(10));
        let s = co.resume(Time::from_micros(1), Some(20));
        assert_eq!(s, Step::Request(21));
        let s = co.resume(Time::from_micros(2), Some(42));
        assert_eq!(s, Step::Done);
    }

    #[test]
    fn now_advances_with_resume() {
        let mut co: Coroutine<(), ()> = Coroutine::spawn(|mut io| async move {
            assert_eq!(io.now(), Time::ZERO);
            io.compute(Duration::from_micros(3)).await;
            assert_eq!(io.now(), Time::from_micros(3));
        });
        co.resume(Time::ZERO, None);
        assert_eq!(co.resume(Time::from_micros(3), None), Step::Done);
    }

    #[test]
    fn zero_compute_is_free() {
        let mut co: Coroutine<(), ()> = Coroutine::spawn(|mut io| async move {
            io.compute(Duration::ZERO).await; // must not park
        });
        assert_eq!(co.resume(Time::ZERO, None), Step::Done);
    }

    #[test]
    fn drop_unfinished_coroutine_is_clean() {
        let mut co: Coroutine<u32, u32> = Coroutine::spawn(|mut io| async move {
            let _ = io.request(1).await;
            unreachable!("dropped before a response arrives");
        });
        let _ = co.resume(Time::ZERO, None); // park it at the request
        drop(co); // must not hang or panic
    }

    #[test]
    fn drop_never_started_coroutine_is_clean() {
        let co: Coroutine<u32, u32> = Coroutine::spawn(|mut io| async move {
            let _ = io.request(1).await;
        });
        drop(co);
    }

    #[test]
    #[should_panic(expected = "body failed after its first request")]
    fn body_panic_unwinds_out_of_resume() {
        let mut co: Coroutine<u32, u32> = Coroutine::spawn(|mut io| async move {
            let _ = io.request(1).await;
            panic!("body failed after its first request");
        });
        assert_eq!(co.resume(Time::ZERO, None), Step::Request(1));
        co.resume(Time::from_micros(1), Some(2));
    }

    #[test]
    #[should_panic(expected = "awaited a future other than its ProcIo's")]
    fn foreign_await_is_refused() {
        let mut co: Coroutine<u32, u32> =
            Coroutine::spawn(|_io| async move { std::future::pending::<()>().await });
        co.resume(Time::ZERO, None);
    }

    #[test]
    fn many_coroutines_interleave_deterministically() {
        let mut cos: Vec<Coroutine<u32, u32>> = (0..8)
            .map(|i| {
                Coroutine::spawn(move |mut io| async move {
                    let mut acc = i;
                    for _ in 0..50 {
                        acc = io.request(acc).await;
                    }
                    io.compute(Duration::from_micros(acc as u64 % 7 + 1)).await;
                })
            })
            .collect();
        let mut t = Time::ZERO;
        let mut pending: Vec<Step<u32>> = cos.iter_mut().map(|co| co.resume(t, None)).collect();
        let mut safety = 0;
        while !cos.iter().all(|c| c.finished()) {
            safety += 1;
            assert!(safety < 10_000, "interleaving did not terminate");
            for (i, co) in cos.iter_mut().enumerate() {
                if co.finished() {
                    continue;
                }
                t += Duration::from_nanos(10);
                pending[i] = match &pending[i] {
                    Step::Request(q) => co.resume(t, Some(q + 1)),
                    Step::Compute(d) => {
                        let d = *d;
                        co.resume(t + d, None)
                    }
                    Step::Done => Step::Done,
                };
            }
        }
    }
}
