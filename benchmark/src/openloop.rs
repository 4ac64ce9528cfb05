//! Open-loop pacing: requests are due on a fixed schedule whatever the
//! program does, and each is timed from when it was *due*, so a stall
//! charges every request that had to wait behind it.

use std::time::{Duration, Instant};

/// A fixed-rate schedule: request `i` is due `i / rate` after the start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: u64,
}

impl Schedule {
    /// `rate_per_s` requests per second on one connection.
    pub fn new(rate_per_s: f64) -> Schedule {
        assert!(rate_per_s > 0.0, "rate must be positive");
        Schedule {
            interval_ns: (1e9 / rate_per_s).round() as u64,
        }
    }

    /// When request `i` is due, in nanoseconds after the start.
    pub fn due_ns(&self, i: usize) -> u64 {
        self.interval_ns * i as u64
    }
}

/// What happened to one request, in nanoseconds after the start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule wanted it sent.
    pub due_ns: u64,
    /// When it was sent (never before it was due).
    pub sent_ns: u64,
    /// When its reply arrived.
    pub done_ns: u64,
}

impl Timing {
    /// Latency as the user saw it: from the due time, so time spent
    /// queued behind a slow predecessor counts.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator sent it.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// Drive `n` requests on `schedule` through `send` (which blocks until
/// the reply is in). `now` and `wait_until` are the clock, injected so
/// the accounting can be tested without sleeping.
pub fn drive(
    schedule: Schedule,
    n: usize,
    mut now: impl FnMut() -> u64,
    mut wait_until: impl FnMut(u64),
    mut send: impl FnMut(usize),
) -> Vec<Timing> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let due_ns = schedule.due_ns(i);
        if now() < due_ns {
            wait_until(due_ns);
        }
        let sent_ns = now().max(due_ns);
        send(i);
        out.push(Timing {
            due_ns,
            sent_ns,
            done_ns: now().max(sent_ns),
        });
    }
    out
}

/// [`drive`] on the real clock, sleeping until each request is due.
///
/// Sleeping makes the generator a little late (the timer's slack and
/// the wake-up), which the due-time rule charges to latency and
/// `server.late_p99_us` reports. Spinning instead was tried and is
/// worse on two cores: the spinners hold both, and whether a woken
/// server thread displaces one at once flips a round's median between
/// ~110 and ~300 us.
pub fn drive_real(schedule: Schedule, n: usize, send: impl FnMut(usize)) -> Vec<Timing> {
    let start = Instant::now();
    let now = || start.elapsed().as_nanos() as u64;
    let wait_until = |due_ns: u64| {
        let elapsed = start.elapsed().as_nanos() as u64;
        if due_ns > elapsed {
            std::thread::sleep(Duration::from_nanos(due_ns - elapsed));
        }
    };
    drive(schedule, n, now, wait_until, send)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // 1000 req/s: due at 0, 1, 2, 3, 4 ms. Request 1 stalls 3.5 ms;
        // every other request takes 0.1 ms.
        let clock = Cell::new(0u64);
        let timings = drive(
            Schedule::new(1000.0),
            5,
            || clock.get(),
            |due| clock.set(due),
            |i| clock.set(clock.get() + if i == 1 { 3_500_000 } else { 100_000 }),
        );
        let latency: Vec<u64> = timings.iter().map(Timing::latency_ns).collect();
        let lateness: Vec<u64> = timings.iter().map(Timing::lateness_ns).collect();
        // Request 1 finishes at 4.5 ms; 2 and 3 were due at 2 and 3 ms
        // but go out at 4.5 and 4.6 ms; request 4 (due 4 ms) at 4.7 ms.
        assert_eq!(
            latency,
            vec![100_000, 3_500_000, 2_600_000, 1_700_000, 800_000]
        );
        assert_eq!(lateness, vec![0, 0, 2_500_000, 1_600_000, 700_000]);
        // Timed from the send instead, the stall would hide: each of
        // the queued requests took only 0.1 ms of service.
        assert!(timings[2..]
            .iter()
            .all(|t| t.done_ns - t.sent_ns == 100_000));
    }

    #[test]
    fn an_idle_generator_is_never_late() {
        let clock = Cell::new(0u64);
        let timings = drive(
            Schedule::new(2000.0),
            4,
            || clock.get(),
            |due| clock.set(due),
            |_| clock.set(clock.get() + 50_000),
        );
        assert!(timings.iter().all(|t| t.lateness_ns() == 0));
        assert!(timings.iter().all(|t| t.latency_ns() == 50_000));
        assert_eq!(timings[3].due_ns, 1_500_000);
    }
}
