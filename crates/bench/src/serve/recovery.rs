//! Crash recovery: replays the serve WAL into the set of jobs that were
//! accepted but never reached a terminal state.
//!
//! The invariants the WAL upholds (and this module relies on):
//!
//! 1. A job's `submitted` event is durable **before** the job is
//!    enqueued, so an accepted job can never vanish in a crash.
//! 2. Terminal events (`done`/`quarantined`/`cancelled`) are appended
//!    **before** the result is announced to any client, so a job a
//!    client saw finish is never re-run.
//! 3. Trial-level progress lives in the content-addressed trial journal
//!    (`trials-<key>.jsonl`), not the WAL — re-running a recovered job
//!    resumes from that journal and is therefore bit-identical to an
//!    uninterrupted run.
//!
//! Like the trial journal loader, replay tolerates exactly one torn
//! trailing line (a `kill -9` mid-append leaves a partial record with no
//! trailing newline); malformed newline-terminated lines are corruption
//! and abort the replay.

use super::queue::{JobSpec, WAL_SCHEMA};
use microsampler_obs::{diag_warn, json, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One job the WAL says was accepted but never finished.
#[derive(Clone, Debug)]
pub struct PendingJob {
    /// Submission sequence number (replay preserves submission order).
    pub seq: u64,
    /// Stable job id from the original submission.
    pub id: String,
    /// Submitting client's tag.
    pub client: String,
    /// The job to re-run.
    pub spec: JobSpec,
}

/// Result of replaying a WAL.
#[derive(Clone, Debug, Default)]
pub struct WalReplay {
    /// Unfinished jobs in submission order.
    pub pending: Vec<PendingJob>,
    /// Next submission sequence number (1 + the highest seen).
    pub next_seq: u64,
    /// Whether a torn trailing line was skipped.
    pub skipped_torn: bool,
}

/// Replays the WAL at `path`. A missing file is a fresh state directory,
/// not an error.
///
/// # Errors
///
/// Returns a message naming the offending line for unparseable or
/// schema-violating records (other than a torn trailing line).
pub fn replay_wal(path: &Path) -> Result<WalReplay, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(e) => return Err(format!("cannot read serve WAL {}: {e}", path.display())),
    };
    let mut replay = WalReplay::default();
    let mut live: BTreeMap<String, PendingJob> = BTreeMap::new();
    let last_idx = text.lines().count().saturating_sub(1);
    let torn_tail_possible = !text.is_empty() && !text.ends_with('\n');
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match replay_line(line, &mut live, &mut replay.next_seq) {
            Ok(()) => {}
            Err(msg) if torn_tail_possible && idx == last_idx => {
                diag_warn!(
                    "serve WAL {} line {}: skipping torn trailing record \
                     (crash mid-append?): {msg}",
                    path.display(),
                    idx + 1
                );
                replay.skipped_torn = true;
            }
            Err(msg) => {
                return Err(format!("serve WAL {} line {}: {msg}", path.display(), idx + 1))
            }
        }
    }
    let mut pending: Vec<PendingJob> = live.into_values().collect();
    pending.sort_by_key(|j| j.seq);
    replay.pending = pending;
    Ok(replay)
}

/// Applies one WAL line to the live-job map.
fn replay_line(
    line: &str,
    live: &mut BTreeMap<String, PendingJob>,
    next_seq: &mut u64,
) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    if v.get("schema").and_then(Value::as_str) != Some(WAL_SCHEMA) {
        return Err(format!("expected schema {WAL_SCHEMA}"));
    }
    let id = v.get("job").and_then(Value::as_str).ok_or("missing `job`")?.to_owned();
    match v.get("event").and_then(Value::as_str) {
        Some("submitted") => {
            let seq = v.get("seq").and_then(Value::as_u64).ok_or("missing `seq`")?;
            let client = v.get("client").and_then(Value::as_str).unwrap_or("anon").to_owned();
            let spec = JobSpec::from_json(v.get("spec").ok_or("missing `spec`")?)
                .map_err(|e| format!("bad spec: {e}"))?;
            *next_seq = (*next_seq).max(seq + 1);
            live.insert(id.clone(), PendingJob { seq, id, client, spec });
        }
        // Progress events carry no recovery state: a crash between
        // `started` and a terminal event re-runs the job, and the trial
        // journal makes the re-run resume where it stopped.
        Some("started") | Some("retrying") => {}
        Some("done") | Some("quarantined") | Some("cancelled") => {
            live.remove(&id);
        }
        Some(other) => return Err(format!("unknown event `{other}`")),
        None => return Err("missing `event`".to_string()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::queue::{submitted_event, terminal_event, JobHandle, JobState};
    use super::*;
    use std::path::PathBuf;

    fn wal_path(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("microsampler-serve-replay-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn missing_wal_is_a_fresh_state() {
        let replay = replay_wal(Path::new("/nonexistent/serve-wal.jsonl")).unwrap();
        assert!(replay.pending.is_empty());
        assert_eq!(replay.next_seq, 0);
    }

    #[test]
    fn unfinished_jobs_survive_and_finished_ones_do_not() {
        let finished = JobHandle::new(0, "ci", JobSpec::default(), false);
        let pending = JobHandle::new(1, "dev", JobSpec { seed: 7, ..JobSpec::default() }, false);
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            submitted_event(&finished).render_compact(),
            submitted_event(&pending).render_compact(),
            super::super::queue::started_event(&finished.id, 1).render_compact(),
            terminal_event(&finished.id, &JobState::Done { leaky: true, verdict: Value::Null })
                .unwrap()
                .render_compact(),
        );
        let path = wal_path("lifecycle");
        std::fs::write(&path, text).unwrap();
        let replay = replay_wal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.next_seq, 2, "sequence resumes past every submission");
        assert_eq!(replay.pending.len(), 1, "only the unfinished job replays");
        let job = &replay.pending[0];
        assert_eq!(job.id, "job-1");
        assert_eq!(job.client, "dev");
        assert_eq!(job.spec.seed, 7);
        assert!(!replay.skipped_torn);
    }

    #[test]
    fn torn_trailing_line_is_skipped_with_a_warning() {
        let job = JobHandle::new(4, "ci", JobSpec::default(), false);
        let full = submitted_event(&job).render_compact();
        let torn = &full[..full.len() / 2];
        let path = wal_path("torn");
        std::fs::write(&path, format!("{full}\n{torn}")).unwrap();
        let replay = replay_wal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(replay.skipped_torn);
        assert_eq!(replay.pending.len(), 1, "the complete record still replays");
        assert_eq!(replay.next_seq, 5);
    }

    #[test]
    fn torn_line_mid_file_is_corruption() {
        let job = JobHandle::new(0, "ci", JobSpec::default(), false);
        let full = submitted_event(&job).render_compact();
        let torn = &full[..full.len() / 2];
        let path = wal_path("midtorn");
        std::fs::write(&path, format!("{torn}\n{full}\n")).unwrap();
        let got = replay_wal(&path);
        std::fs::remove_file(&path).ok();
        assert!(got.unwrap_err().contains("line 1"));
    }

    #[test]
    fn an_oversized_spec_in_the_wal_is_refused_naming_the_line() {
        // A WAL written before job sizes were capped: recovery applies the
        // same cap as a submit request, so the daemon refuses to start
        // instead of aborting on the allocation.
        let ok = JobHandle::new(0, "ci", JobSpec::default(), false);
        let huge = JobHandle::new(1, "ci", JobSpec { keys: 1 << 40, ..JobSpec::default() }, false);
        let text = format!(
            "{}\n{}\n",
            submitted_event(&ok).render_compact(),
            submitted_event(&huge).render_compact()
        );
        let path = wal_path("oversized");
        std::fs::write(&path, text).unwrap();
        let got = replay_wal(&path);
        std::fs::remove_file(&path).ok();
        let e = got.unwrap_err();
        assert!(e.contains("line 2: bad spec:") && e.contains("at most 65536"), "{e}");
    }

    #[test]
    fn malformed_records_name_the_line() {
        let cases = [
            ("{\"schema\":\"wrong\",\"event\":\"submitted\",\"job\":\"job-0\"}", "bad schema"),
            (
                "{\"schema\":\"microsampler-serve-job-v1\",\"event\":\"submitted\",\"job\":\"j\"}",
                "missing seq",
            ),
            (
                "{\"schema\":\"microsampler-serve-job-v1\",\"event\":\"warp\",\"job\":\"j\"}",
                "event",
            ),
            ("{\"schema\":\"microsampler-serve-job-v1\",\"job\":\"j\"}", "no event"),
        ];
        for (line, tag) in cases {
            let path = wal_path(tag.split(' ').next().unwrap());
            std::fs::write(&path, format!("{line}\n")).unwrap();
            let got = replay_wal(&path);
            std::fs::remove_file(&path).ok();
            let err = got.expect_err(tag);
            assert!(err.contains("line 1"), "{tag}: {err}");
        }
    }
}
