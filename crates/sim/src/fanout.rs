//! The one fan-out for independent simulations.
//!
//! A simulation runs on one thread; parallelism runs only across
//! independent simulations (chaos trials, sweep cells), and this module
//! is the one place that starts threads for them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::{panic, thread};

/// Run `job(i)` for every `i` in `0..n` on up to `workers` threads and
/// return the results in index order.
///
/// Workers claim indices from a shared counter, so a slow job holds up no
/// other. With at most one worker every job runs on the calling thread.
/// A job's panic reaches the caller with its own payload once every
/// worker has stopped.
pub fn map_indexed<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let parts: Vec<thread::Result<Vec<(usize, T)>>> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut done = Vec::with_capacity(n);
    for part in parts {
        done.extend(part.unwrap_or_else(|payload| panic::resume_unwind(payload)));
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [0, 1, 2, 3, 8] {
            for n in [0, 1, 2, 7] {
                let got = map_indexed(n, workers, |i| i * 10);
                let want: Vec<usize> = (0..n).map(|i| i * 10).collect();
                assert_eq!(got, want, "workers {workers}, n {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "job 3")]
    fn a_jobs_panic_reaches_the_caller() {
        map_indexed(8, 3, |i| {
            if i == 3 {
                panic!("job 3 failed");
            }
            i
        });
    }
}
