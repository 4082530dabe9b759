//! Per-connection protocol handling for `repro serve`.
//!
//! The protocol is line-delimited JSON over a unix-domain socket. A
//! client sends exactly one request line, then reads response lines
//! until the connection closes:
//!
//! * `{"op":"submit","client":"ci","kernel":"ME-V2-Safe","keys":4,...}`
//!   — accept an audit job (spec fields as in
//!   [`super::queue::JobSpec::from_json`]). The daemon answers with an
//!   `accepted` event, then streams the job's `microsampler-trial-v1`
//!   journal lines as trials finish, then a final `verdict` event.
//! * `{"op":"cancel","job":"job-3"}` — latch a live job's cancel token.
//! * `{"op":"status"}` — queue depth and drain state.
//!
//! Every daemon-originated line carries `"schema":"microsampler-serve-v1"`
//! except the forwarded trial-journal lines, which keep their own
//! schemas. Overload and shutdown answer `submit` with a `busy` event
//! (`reason`: `queue-full`, `client-quota`, or `shutting-down`) and
//! close. A client that disconnects mid-stream cancels its job.

use super::queue::JobHandle;
use super::{ServeState, SubmitError};
use microsampler_obs::{diag_warn, json, metrics, Value};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag on every protocol response line.
pub const SERVE_SCHEMA: &str = "microsampler-serve-v1";

/// How long a connected client may sit silent before its request slot
/// is reclaimed.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// Longest request line accepted, newline excluded; a real request is a
/// few hundred bytes.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Serves one connection to completion; errors are diagnosed, never
/// propagated (one bad client must not dent the daemon).
pub fn handle_client(state: &Arc<ServeState>, stream: UnixStream) {
    if let Err(e) = client_loop(state, stream) {
        diag_warn!("serve session ended with an error: {e}");
    }
}

fn write_event(stream: &mut UnixStream, event: &Value) -> Result<(), String> {
    writeln!(stream, "{}", event.render_compact()).map_err(|e| format!("client write failed: {e}"))
}

fn event(kind: &str) -> microsampler_obs::json::ObjectBuilder {
    Value::object().field("schema", SERVE_SCHEMA).field("event", kind)
}

fn client_loop(state: &Arc<ServeState>, mut stream: UnixStream) -> Result<(), String> {
    let Some(line) = read_request_line(state, &mut stream)? else {
        return Ok(());
    };
    let request = match json::parse(&line) {
        Ok(v) => v,
        Err(e) => {
            write_event(
                &mut stream,
                &event("error").field("message", format!("bad request: {e}")).build(),
            )?;
            return Ok(());
        }
    };
    match request.get("op").and_then(Value::as_str) {
        Some("status") => {
            write_event(&mut stream, &event("status").field("status", state.status_json()).build())
        }
        Some("cancel") => {
            let job = request.get("job").and_then(Value::as_str).unwrap_or("");
            let found = state.cancel(job);
            metrics::record("serve.ops.cancel", 1.0);
            write_event(
                &mut stream,
                &event("cancel-ack").field("job", job).field("found", found).build(),
            )
        }
        Some("submit") => submit(state, &mut stream, &request),
        other => write_event(
            &mut stream,
            &event("error")
                .field(
                    "message",
                    format!(
                        "unknown op `{}` (expected submit, cancel, or status)",
                        other.unwrap_or("<missing>")
                    ),
                )
                .build(),
        ),
    }
}

/// Reads the single request line, polling the shutdown flag so a silent
/// client cannot stall the drain. Returns `None` on a clean early
/// disconnect, or after answering a line longer than
/// [`MAX_REQUEST_LINE`] with an `error` event.
fn read_request_line(
    state: &Arc<ServeState>,
    stream: &mut UnixStream,
) -> Result<Option<String>, String> {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("cannot set the read timeout: {e}"))?;
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf = Vec::new();
    loop {
        if state.is_shutting_down() {
            let _ = write_event(stream, &busy_event(SubmitError::ShuttingDown));
            return Ok(None);
        }
        if Instant::now() >= deadline {
            return Err("client sent no request within the deadline".to_string());
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => {
                // Only the new bytes can hold the first newline.
                let scanned = buf.len();
                buf.extend_from_slice(&chunk[..n]);
                let end = buf[scanned..].iter().position(|&b| b == b'\n').map(|nl| scanned + nl);
                if end.unwrap_or(buf.len()) > MAX_REQUEST_LINE {
                    let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                    write_event(stream, &event("error").field("message", message).build())?;
                    return Ok(None);
                }
                if let Some(end) = end {
                    buf.truncate(end);
                    return String::from_utf8(buf)
                        .map(Some)
                        .map_err(|e| format!("request is not UTF-8: {e}"));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(format!("client read failed: {e}")),
        }
    }
}

fn busy_event(reason: SubmitError) -> Value {
    event("busy").field("reason", reason.reason()).build()
}

fn submit(state: &Arc<ServeState>, stream: &mut UnixStream, request: &Value) -> Result<(), String> {
    let client = request.get("client").and_then(Value::as_str).unwrap_or("anon");
    let spec = match super::queue::JobSpec::from_json(request) {
        Ok(spec) => spec,
        Err(e) => {
            return write_event(
                stream,
                &event("error").field("message", format!("bad job spec: {e}")).build(),
            )
        }
    };
    let job = match state.submit(client, spec) {
        Ok(job) => job,
        Err(reject) => {
            metrics::record("serve.jobs.rejected", 1.0);
            return write_event(stream, &busy_event(reject));
        }
    };
    write_event(
        stream,
        &event("accepted").field("job", job.id.as_str()).field("key", job.key.as_str()).build(),
    )?;
    stream_job(state, stream, &job);
    Ok(())
}

/// Streams a job to its client: forwards trial-journal lines as they
/// are appended, watches for client cancellation or disconnect, and
/// finishes with the terminal `verdict` event.
fn stream_job(state: &Arc<ServeState>, stream: &mut UnixStream, job: &Arc<JobHandle>) {
    let journal = state.journal_path(&job.key);
    let mut offset = 0u64;
    stream.set_read_timeout(Some(Duration::from_millis(25))).ok();
    loop {
        // Snapshot the state *before* draining the journal: every line
        // a finishing executor writes lands before the terminal state
        // does, so a terminal snapshot means the drain below is total.
        let snapshot = job.state();
        match forward_new_lines(&journal, offset, stream) {
            Ok(consumed) => offset += consumed,
            Err(e) => {
                diag_warn!("serve: dropping client of {}: {e}", job.id);
                job.request_cancel();
                return;
            }
        }
        if snapshot.is_terminal() {
            // A terminal drain that leaves bytes behind means the
            // journal ends in a torn record (a writer killed mid-append,
            // e.g. a submit timeout). The partial line is deliberately
            // not forwarded — the next resume repairs the tail and
            // re-runs that trial — but the skip should be visible.
            let trailing =
                std::fs::metadata(&journal).map_or(0, |m| m.len().saturating_sub(offset));
            if trailing > 0 {
                diag_warn!(
                    "serve: {} journal ends in a torn {trailing}-byte record; \
                     skipped (the next resume repairs and re-runs it)",
                    job.id
                );
            }
            let final_event = terminal_response(job, &snapshot);
            if let Err(e) = write_event(stream, &final_event) {
                diag_warn!("serve: could not deliver the {} verdict: {e}", job.id);
            }
            return;
        }
        // The read below doubles as the pacing sleep (25 ms timeout).
        let mut chunk = [0u8; 256];
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Disconnect: nobody is listening, stop the work.
                job.request_cancel();
                metrics::record("serve.clients.disconnected", 1.0);
                return;
            }
            Ok(n) => {
                // The only in-stream client message is a cancel op.
                if String::from_utf8_lossy(&chunk[..n]).contains("\"cancel\"") {
                    job.request_cancel();
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                job.request_cancel();
                return;
            }
        }
    }
}

/// Forwards every *complete* journal line past `offset`; a partial
/// trailing line (mid-append) waits for the next poll. Returns the
/// bytes consumed.
fn forward_new_lines(journal: &Path, offset: u64, stream: &mut UnixStream) -> Result<u64, String> {
    let data = std::fs::read(journal).unwrap_or_default();
    if data.len() as u64 <= offset {
        return Ok(0);
    }
    let fresh = &data[offset as usize..];
    let Some(last_newline) = fresh.iter().rposition(|&b| b == b'\n') else {
        return Ok(0);
    };
    stream.write_all(&fresh[..=last_newline]).map_err(|e| format!("client write failed: {e}"))?;
    Ok((last_newline + 1) as u64)
}

/// The final protocol event for a terminal job state.
fn terminal_response(job: &JobHandle, state: &super::queue::JobState) -> Value {
    use super::queue::JobState;
    let base = event("verdict").field("job", job.id.as_str()).field("key", job.key.as_str());
    match state {
        JobState::Done { leaky, verdict } => base
            .field("status", "done")
            .field("leaky", *leaky)
            .field("verdict", verdict.clone())
            .build(),
        JobState::Quarantined { class, message, attempts } => base
            .field("status", "quarantined")
            .field("class", class.as_str())
            .field("message", message.as_str())
            .field("attempts", *attempts)
            .build(),
        JobState::Cancelled => base.field("status", "cancelled").build(),
        other => base.field("status", other.name()).build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_responses_cover_every_outcome() {
        use super::super::queue::{JobSpec, JobState};
        let job = JobHandle::new(0, "ci", JobSpec::default(), false);
        let done = terminal_response(
            &job,
            &JobState::Done { leaky: true, verdict: Value::object().field("x", 1u64).build() },
        );
        assert_eq!(done.get("schema").unwrap().as_str(), Some(SERVE_SCHEMA));
        assert_eq!(done.get("event").unwrap().as_str(), Some("verdict"));
        assert_eq!(done.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(done.get("leaky").unwrap().as_bool(), Some(true));
        assert!(done.get("verdict").unwrap().get("x").is_some());
        let quarantined = terminal_response(
            &job,
            &JobState::Quarantined { class: "timed-out".into(), message: "m".into(), attempts: 2 },
        );
        assert_eq!(quarantined.get("status").unwrap().as_str(), Some("quarantined"));
        assert_eq!(quarantined.get("attempts").unwrap().as_u64(), Some(2));
        let cancelled = terminal_response(&job, &JobState::Cancelled);
        assert_eq!(cancelled.get("status").unwrap().as_str(), Some("cancelled"));
    }

    #[test]
    fn busy_events_carry_the_structured_reason() {
        for (err, reason) in [
            (SubmitError::QueueFull, "queue-full"),
            (SubmitError::ClientQuota, "client-quota"),
            (SubmitError::ShuttingDown, "shutting-down"),
        ] {
            let v = busy_event(err);
            assert_eq!(v.get("schema").unwrap().as_str(), Some(SERVE_SCHEMA));
            assert_eq!(v.get("event").unwrap().as_str(), Some("busy"));
            assert_eq!(v.get("reason").unwrap().as_str(), Some(reason));
        }
    }
}
