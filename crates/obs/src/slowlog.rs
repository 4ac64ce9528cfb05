//! The slow-query log: a bounded buffer holding the N slowest requests
//! a server has seen so far, each with its rendered
//! [`QueryTrace`](crate::trace::QueryTrace) tree.
//!
//! A [`SlowLog`] is a plain value; each server owns one, so two servers
//! in a process neither see nor evict each other's requests. The
//! serving layer decides *what* counts as slow (its `--slowlog-ms`
//! threshold) and only then calls [`SlowLog::record`], so the owner's
//! lock is taken once per slow request plus once per `SLOWLOG` read —
//! never on the fast path.
//!
//! Admission keeps the *slowest* requests, not the most recent: while
//! the buffer is below capacity every entry is admitted; at capacity a
//! new entry evicts the current fastest resident only if it is slower.

/// Default bound on resident entries.
pub const DEFAULT_CAPACITY: usize = 32;

/// Longest script preview stored per entry; the rest is elided.
pub const PREVIEW_LIMIT: usize = 160;

/// One slow request, as captured by the serving layer.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// The wire verb that carried the request (`QUERY`, `TRACE`, …).
    pub verb: String,
    /// The request script, truncated to [`PREVIEW_LIMIT`] characters.
    pub preview: String,
    /// Wall time of the whole request, nanoseconds.
    pub wall_ns: u64,
    /// Engine epoch when the request completed.
    pub epoch: u64,
    /// Admission order within its log (monotone): ties in `wall_ns`
    /// sort by earliest admission.
    pub seq: u64,
    /// The rendered `QueryTrace` tree of the request.
    pub trace: String,
}

/// A bounded log of the slowest requests offered to it.
#[derive(Debug)]
pub struct SlowLog {
    capacity: usize,
    next_seq: u64,
    entries: Vec<SlowEntry>,
}

fn fastest_index(entries: &[SlowEntry]) -> usize {
    entries
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| (e.wall_ns, u64::MAX - e.seq))
        .map(|(i, _)| i)
        .expect("non-empty")
}

impl SlowLog {
    /// An empty log bounded to `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> SlowLog {
        SlowLog {
            capacity: capacity.max(1),
            next_seq: 0,
            entries: Vec::new(),
        }
    }

    /// Offer one request to the log. Returns `true` if it was admitted
    /// (the buffer had room, or the request is slower than the current
    /// fastest resident).
    pub fn record(
        &mut self,
        verb: &str,
        script: &str,
        wall_ns: u64,
        epoch: u64,
        trace: String,
    ) -> bool {
        let preview: String = {
            let mut p: String = script.trim().chars().take(PREVIEW_LIMIT).collect();
            if script.trim().chars().count() > PREVIEW_LIMIT {
                p.push('…');
            }
            p
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = SlowEntry {
            verb: verb.to_string(),
            preview,
            wall_ns,
            epoch,
            seq,
            trace,
        };
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            return true;
        }
        let fastest = fastest_index(&self.entries);
        if self.entries[fastest].wall_ns < wall_ns {
            self.entries[fastest] = entry;
            return true;
        }
        false
    }

    /// Snapshot of the resident entries, slowest first (ties by
    /// earliest admission).
    pub fn entries(&self) -> Vec<SlowEntry> {
        let mut out = self.entries.clone();
        out.sort_by_key(|e| (u64::MAX - e.wall_ns, e.seq));
        out
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been admitted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_slowest_entries_at_capacity() {
        let mut log = SlowLog::new(3);
        for (i, wall) in [10u64, 50, 30, 5, 70, 40].into_iter().enumerate() {
            log.record("QUERY", &format!("q{i}"), wall, i as u64, String::new());
        }
        let got = log.entries();
        assert_eq!(log.len(), 3);
        let walls: Vec<u64> = got.iter().map(|e| e.wall_ns).collect();
        assert_eq!(walls, vec![70, 50, 40], "slowest three, slowest first");
        let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 1, 5], "seq counts offers to this log");
    }

    #[test]
    fn previews_truncate_and_traces_ride_along() {
        let mut log = SlowLog::new(DEFAULT_CAPACITY);
        let long = "x".repeat(PREVIEW_LIMIT + 40);
        assert!(log.record("TRACE", &long, 9, 2, "server.query\n".into()));
        let got = log.entries();
        let e = &got[0];
        assert_eq!(e.verb, "TRACE");
        assert!(e.preview.chars().count() <= PREVIEW_LIMIT + 1, "truncated");
        assert!(e.preview.ends_with('…'));
        assert_eq!(e.trace, "server.query\n");
        assert_eq!(e.epoch, 2);
    }
}
