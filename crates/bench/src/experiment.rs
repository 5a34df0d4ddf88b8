//! The one experiment harness every measured figure shares: a worker
//! pool, a digest, a two-run rerun lock and a document writer.
//!
//! - [`run_pool`] runs independent tasks on at most `jobs` threads and
//!   hands the results back in task order, so output never depends on
//!   the job count or on which worker finished first. Every task owns
//!   its whole simulated world; nothing is shared but the task list.
//! - [`fnv1a64`] is the digest every artifact records.
//! - [`RerunLock`] is the determinism lock: two same-seed runs of one
//!   configuration, reduced to their published witnesses, must agree
//!   byte-for-byte.
//! - [`document`] renders a `BENCH_*.json` body: `"scale"` first, then
//!   named sections whose rows each experiment renders itself (its
//!   point schema is also its digest witness). Hand-rolled JSON, since
//!   the workspace carries no serde, with no wall-clock fields outside
//!   `BENCH_reproduce.json`, so same-seed artifacts are byte-identical.

use crate::Scale;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` over every task on at most `jobs` worker threads and
/// returns the results in task order, whatever order they finish in.
///
/// Workers steal the next task index from a shared counter; each result
/// lands in its task's slot.
pub fn run_pool<T: Sync, R: Send>(jobs: usize, tasks: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    // `Relaxed` suffices: the counter only hands out distinct indices,
    // and results are published through the slot mutexes and the
    // scope's join.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(tasks.len()).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                let result = f(task);
                *slots[i].lock().expect("no worker panics holding a slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no worker panics holding a slot")
                .expect("every task slot is filled")
        })
        .collect()
}

/// FNV-1a over `bytes`: the workspace carries no hash crates, and a
/// 64-bit digest is plenty for an equality witness (comparisons in
/// tests and locks use the full bytes; the digest is what artifacts
/// record).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A two-run determinism lock: the same configuration run twice from
/// the same seed must publish the same witness, byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RerunLock {
    /// What was run twice (a transport, a lifecycle wave).
    pub label: String,
    /// FNV-1a digest of the first run's witness.
    pub digest_a: String,
    /// FNV-1a digest of the second run's witness.
    pub digest_b: String,
    /// Whether the two witnesses matched byte-for-byte.
    pub identical: bool,
}

impl RerunLock {
    /// Locks two same-seed runs by their witnesses: the bytes each run
    /// publishes plus whatever else it must reproduce (event counts,
    /// trace digests).
    pub fn new(label: impl Into<String>, witness_a: &str, witness_b: &str) -> RerunLock {
        let digest = |w: &str| format!("{:016x}", fnv1a64(w.as_bytes()));
        RerunLock {
            label: label.into(),
            digest_a: digest(witness_a),
            digest_b: digest(witness_b),
            identical: witness_a == witness_b,
        }
    }

    /// The lock's row in an artifact's `"chaos"` section.
    pub fn json(&self) -> String {
        format!(
            "{{\"label\": \"{}\", \"digest_a\": \"{}\", \"digest_b\": \"{}\", \"identical\": {}}}",
            self.label, self.digest_a, self.digest_b, self.identical
        )
    }
}

/// One named section of a [`document`].
pub enum Section {
    /// A JSON array, one pre-rendered row per line.
    Rows(Vec<String>),
    /// One pre-rendered JSON value on the section's line.
    Value(String),
}

/// Renders a `BENCH_*.json` document: `"scale"`, then `sections` in
/// order.
pub fn document(scale: Scale, sections: Vec<(&str, Section)>) -> String {
    let mut out = format!("{{\n  \"scale\": \"{scale:?}\"");
    for (name, section) in sections {
        out.push_str(&format!(",\n  \"{name}\": "));
        match section {
            Section::Value(v) => out.push_str(&v),
            Section::Rows(rows) => {
                out.push_str("[\n");
                for (i, row) in rows.iter().enumerate() {
                    let comma = if i + 1 < rows.len() { "," } else { "" };
                    out.push_str(&format!("    {row}{comma}\n"));
                }
                out.push_str("  ]");
            }
        }
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_pool_returns_task_order_at_any_job_count() {
        use std::sync::Condvar;
        let tasks: Vec<u64> = (0..7).collect();
        let want: Vec<u64> = tasks.iter().map(|t| t * t).collect();
        for jobs in [1, 2, 16] {
            // With a second worker, task 0 waits for the last task, so
            // results finish out of task order.
            let finished = (Mutex::new(Vec::new()), Condvar::new());
            let square = |&t: &u64| {
                let (done, cv) = &finished;
                let mut done = done.lock().unwrap();
                if t == 0 && jobs > 1 {
                    done = cv.wait_while(done, |d| !d.contains(&6)).unwrap();
                }
                done.push(t);
                cv.notify_all();
                t * t
            };
            assert_eq!(run_pool(jobs, &tasks, square), want, "jobs = {jobs}");
            let order = finished.0.into_inner().unwrap();
            assert_eq!(order.len(), tasks.len());
            assert_eq!(
                order[0] == 0,
                jobs == 1,
                "jobs = {jobs}: completion order {order:?}"
            );
        }
        assert!(run_pool(4, &[] as &[u64], |&t: &u64| t).is_empty());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn rerun_lock_compares_witnesses() {
        let same = RerunLock::new("aoe", "w", "w");
        assert!(same.identical);
        assert_eq!(same.digest_a, same.digest_b);
        assert_eq!(same.digest_a, format!("{:016x}", fnv1a64(b"w")));
        let broken = RerunLock::new("aoe", "w", "x");
        assert!(!broken.identical);
        assert_ne!(broken.digest_a, broken.digest_b);
        assert_eq!(
            same.json(),
            format!(
                "{{\"label\": \"aoe\", \"digest_a\": \"{0}\", \"digest_b\": \"{0}\", \
                 \"identical\": true}}",
                same.digest_a
            )
        );
    }

    #[test]
    fn document_renders_scale_then_sections() {
        let doc = document(
            Scale::Quick,
            vec![
                ("kinds", Section::Value("[\"a\", \"b\"]".into())),
                (
                    "points",
                    Section::Rows(vec!["{\"n\": 1}".into(), "{\"n\": 2}".into()]),
                ),
                ("empty", Section::Rows(Vec::new())),
            ],
        );
        assert_eq!(
            doc,
            "{\n  \"scale\": \"Quick\",\n  \"kinds\": [\"a\", \"b\"],\n  \"points\": [\n    \
             {\"n\": 1},\n    {\"n\": 2}\n  ],\n  \"empty\": [\n  ]\n}\n"
        );
    }
}
