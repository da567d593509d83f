//! Open- and closed-loop load generation.
//!
//! The open loop sends each request at a due time precomputed from the
//! seed, whatever the server is doing, and times it from that due time: a
//! stall that delays later sends shows in their latency. How late the
//! generator itself ran (sleep overshoot while it was free to send) is
//! kept apart as the generator lag.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::host::thread_cpu;
use crate::rng::Rng;

/// Sends at a constant `rate` per second over `length`, starting at a
/// seeded phase within the first interval: the due offsets from the phase
/// start, ascending. A constant offered rate (rather than bursty
/// arrivals) keeps the measured tail about the system, not about how
/// the seed happened to bunch the arrivals.
pub fn constant_rate(rate: f64, length: Duration, seed: u64) -> Vec<Duration> {
    let interval = 1.0 / rate;
    let phase = Rng::new(seed).unit() * interval;
    let n = ((length.as_secs_f64() - phase) / interval).ceil().max(0.0) as usize;
    (0..n)
        .map(|k| Duration::from_secs_f64(phase + k as f64 * interval))
        .filter(|d| *d < length)
        .collect()
}

/// Evenly spaced due offsets: `count` sends, one every `every`.
pub fn periodic(every: Duration, count: usize) -> Vec<Duration> {
    (1..=count).map(|k| every * k as u32).collect()
}

/// When one open-loop request was due, when its sender became free, and
/// when it was sent and completed, all as offsets from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub due: Duration,
    pub free: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timing {
    /// Latency as a user sees it: from the due time, so queueing behind an
    /// earlier slow request counts.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent, beyond what the system imposed: zero
    /// when it sent as soon as it was both due and free.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due.max(self.free))
    }
}

/// One completed open-loop request.
#[derive(Debug)]
pub struct Timed<R> {
    pub timing: Timing,
    pub result: R,
}

/// What one generator thread hands back: its results and the CPU time the
/// thread itself used (the generator's own cost, which the server's CPU
/// figure excludes).
#[derive(Debug)]
pub struct ThreadOut<R> {
    pub results: Vec<R>,
    pub cpu: Duration,
}

/// Drive `due.len()` requests with one thread per state (one connection
/// each). Threads take the next due request from a shared queue, sleep
/// until it is due, and call `op(state, index)`.
pub fn run_open<S, R, F>(due: &[Duration], states: Vec<S>, op: F) -> Vec<ThreadOut<Timed<R>>>
where
    S: Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let (next, op) = (&next, &op);
                scope.spawn(move || {
                    let cpu = thread_cpu();
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= due.len() {
                            return ThreadOut {
                                results: done,
                                cpu: thread_cpu() - cpu,
                            };
                        }
                        let free = start.elapsed();
                        let at = start + due[index];
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                        let sent = start.elapsed();
                        let result = op(&mut state, index);
                        let timing = Timing {
                            due: due[index],
                            free,
                            sent,
                            done: start.elapsed(),
                        };
                        done.push(Timed { timing, result });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    })
}

/// Closed loop: each thread sends its next request as soon as the previous
/// one completes, until `length` has passed. Request indices are drawn
/// from one shared counter. Returns every thread's output and the
/// measured wall time.
pub fn run_closed<S, R, F>(length: Duration, states: Vec<S>, op: F) -> (Vec<ThreadOut<R>>, Duration)
where
    S: Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let (next, op) = (&next, &op);
                scope.spawn(move || {
                    let cpu = thread_cpu();
                    let mut done = Vec::new();
                    while start.elapsed() < length {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        done.push(op(&mut state, index));
                    }
                    ThreadOut {
                        results: done,
                        cpu: thread_cpu() - cpu,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn latency_counts_from_due_and_lag_only_the_generator() {
        // due at 10 ms but the connection was busy until 25 ms: 15 ms of
        // queueing is latency, not generator lag
        let queued = Timing {
            due: ms(10),
            free: ms(25),
            sent: ms(25),
            done: ms(27),
        };
        assert_eq!(queued.latency(), ms(17));
        assert_eq!(queued.lag(), ms(0));
        // free early, but the generator woke 3 ms after the due time
        let late = Timing {
            due: ms(10),
            free: ms(2),
            sent: ms(13),
            done: ms(14),
        };
        assert_eq!(late.latency(), ms(4));
        assert_eq!(late.lag(), ms(3));
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_behind_it() {
        // one sender; request 0 stalls 60 ms; 1 and 2 were due meanwhile
        let due = vec![ms(0), ms(10), ms(20), ms(200)];
        let out = run_open(&due, vec![()], |_, i| {
            if i == 0 {
                std::thread::sleep(ms(60));
            }
        });
        let timed = &out[0].results;
        assert_eq!(timed.len(), 4);
        assert!(timed[0].timing.latency() >= ms(60));
        // request 1 was due at 10 ms and could not start before 60 ms
        assert!(timed[1].timing.latency() >= ms(50));
        assert!(timed[2].timing.latency() >= ms(40));
        assert!(timed[1].timing.sent >= ms(60));
        // request 3 was due long after the stall cleared: no backlog
        assert!(timed[3].timing.latency() < ms(40));
        assert!(timed[3].timing.sent >= ms(200));
    }

    #[test]
    fn every_scheduled_request_runs_exactly_once() {
        let due = periodic(ms(1), 40);
        let out = run_open(&due, vec![(), ()], |_, i| i);
        let mut seen: Vec<usize> = out
            .iter()
            .flat_map(|o| o.results.iter().map(|t| t.result))
            .collect();
        seen.sort();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn constant_rate_schedule_is_seeded_evenly_spaced_and_exact() {
        let a = constant_rate(200.0, Duration::from_secs(10), 5);
        assert_eq!(a, constant_rate(200.0, Duration::from_secs(10), 5));
        assert_ne!(a, constant_rate(200.0, Duration::from_secs(10), 6));
        assert_eq!(a.len(), 2000);
        assert!(a[0] < ms(5));
        for w in a.windows(2) {
            let gap = (w[1] - w[0]).as_secs_f64();
            assert!((gap - 0.005).abs() < 1e-9, "{gap}");
        }
        assert!(*a.last().unwrap() < Duration::from_secs(10));
    }

    #[test]
    fn closed_loop_stops_after_its_length() {
        let (out, took) = run_closed(ms(30), vec![(), ()], |_, i| {
            std::thread::sleep(ms(1));
            i
        });
        assert!(took >= ms(30));
        let mut seen: Vec<usize> = out.iter().flat_map(|o| o.results.iter().copied()).collect();
        seen.sort();
        assert!(seen.len() > 4);
        assert_eq!(seen, (0..seen.len()).collect::<Vec<_>>());
    }
}
