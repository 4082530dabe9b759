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
//! (`reason`: `queue-full`, `client-quota`, `shutting-down`, or
//! `sequence-exhausted` once every job sequence number is taken) and
//! close. A client that disconnects mid-stream cancels its job.

use super::queue::JobHandle;
use super::{ServeState, SubmitError};
use microsampler_obs::{diag_warn, json, metrics, Value};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag on every protocol response line.
pub const SERVE_SCHEMA: &str = "microsampler-serve-v1";

/// Whether `line` is a JSON object whose `schema` (its first, as
/// [`Value::get`] finds it) is [`SERVE_SCHEMA`]. Only the keys before
/// `schema` are read, so a forwarded trial-journal line, which leads with
/// its own schema, costs a few bytes rather than a parse. The rest of the
/// line is not checked.
pub fn is_serve_line(line: &str) -> bool {
    let mut r = json::Reader::new(line);
    if r.begin_object().is_err() {
        return false;
    }
    while let Ok(Some(key)) = r.next_key() {
        if key == "schema" {
            return matches!(r.read_str(), Ok(Some(schema)) if schema == SERVE_SCHEMA);
        }
        if r.skip_value().is_err() {
            return false;
        }
    }
    false
}

/// How long a connected client may sit silent before its request slot
/// is reclaimed.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// Longest request line accepted, newline excluded; a real request is a
/// few hundred bytes.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// How long a streaming session waits between journal forwards and client
/// checks while its job runs; the job reaching a terminal state ends the
/// wait at once.
const STREAM_POLL: Duration = Duration::from_millis(25);

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
/// finishes with the terminal `verdict` event as soon as the job's state
/// turns terminal.
fn stream_job(state: &Arc<ServeState>, stream: &mut UnixStream, job: &Arc<JobHandle>) {
    let journal = state.journal_path(&job.key);
    let mut offset = 0u64;
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
        let mut chunk = [0u8; 256];
        match read_pending(stream, &mut chunk) {
            Ok(None) => {}
            Ok(Some(0)) => {
                // Disconnect: nobody is listening, stop the work.
                job.request_cancel();
                metrics::record("serve.clients.disconnected", 1.0);
                return;
            }
            Ok(Some(n)) => {
                // The only in-stream client message is a cancel op.
                if String::from_utf8_lossy(&chunk[..n]).contains("\"cancel\"") {
                    job.request_cancel();
                }
            }
            Err(_) => {
                job.request_cancel();
                return;
            }
        }
        job.wait_terminal(STREAM_POLL);
    }
}

/// Reads what the client has sent without waiting for more: `None` when
/// nothing is pending, `Some(0)` when it hung up. The socket is back in
/// blocking mode on return, so journal lines and the verdict are written
/// whole.
fn read_pending(stream: &mut UnixStream, buf: &mut [u8]) -> std::io::Result<Option<usize>> {
    stream.set_nonblocking(true)?;
    let read = stream.read(buf);
    stream.set_nonblocking(false)?;
    match read {
        Ok(n) => Ok(Some(n)),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    }
}

/// Forwards every *complete* journal line past `offset`; a partial
/// trailing line (mid-append) waits for the next poll. Only the bytes past
/// `offset` are read. Returns the bytes consumed.
fn forward_new_lines(journal: &Path, offset: u64, stream: &mut impl Write) -> Result<u64, String> {
    let mut fresh = Vec::new();
    if let Ok(mut file) = File::open(journal) {
        if file.seek(SeekFrom::Start(offset)).is_ok() && file.read_to_end(&mut fresh).is_err() {
            fresh.clear();
        }
    }
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
    use std::io::{BufRead, BufReader};

    #[test]
    fn serve_lines_are_told_apart_as_a_parse_would() {
        let lines = [
            r#"{"schema":"microsampler-serve-v1","event":"verdict","status":"done"}"#,
            r#"{"event":"busy","schema":"microsampler-serve-v1"}"#,
            r#"  {"sch\u0065ma":"microsampler-serve-v1"}"#,
            r#"{"schema":"microsampler-serve-v1","schema":"other"}"#,
            r#"{"schema":"other","schema":"microsampler-serve-v1"}"#,
            r#"{"schema":7,"event":"verdict"}"#,
            r#"{"schema":"microsampler-trial-v1","id":"k","status":"completed"}"#,
            r#"{"event":"verdict"}"#,
            r#"{"schema":"microsampler-serve-v1","event":"verdict""#,
            r#"{"schema":"microsampler-serve-v1"} trailing"#,
            r#"["schema","microsampler-serve-v1"]"#,
            r#"{"a":[1,{"b":null}],"schema":"microsampler-serve-v1"}"#,
            r#"{"a":[1,,"schema":"microsampler-serve-v1"}"#,
            "not json",
            "",
        ];
        for line in lines {
            // `repro submit` acts on a line when both hold; that must be
            // exactly the lines a full parse finds the schema in.
            let by_reader = is_serve_line(line) && json::parse(line).is_ok();
            let by_parse = json::parse(line)
                .is_ok_and(|v| v.get("schema").and_then(Value::as_str) == Some(SERVE_SCHEMA));
            assert_eq!(by_reader, by_parse, "{line}");
        }
    }

    /// Daemon state in a fresh temporary directory, with no executor
    /// running: each test runs its job itself, or never.
    fn test_state(tag: &str) -> Arc<ServeState> {
        let dir =
            std::env::temp_dir().join(format!("microsampler-session-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = super::super::ServeOptions {
            socket: dir.join("serve.sock"),
            state_dir: dir,
            ..Default::default()
        };
        ServeState::new(opts).expect("state directory is writable")
    }

    /// Submits a two-key job through `handle_client` serving one end of a
    /// socket pair on its own thread. Returns the client end, a reader on
    /// it past the `accepted` line, the session thread and the job.
    fn open_session(
        state: &Arc<ServeState>,
    ) -> (UnixStream, BufReader<UnixStream>, std::thread::JoinHandle<()>, Arc<JobHandle>) {
        let (mut client, server) = UnixStream::pair().unwrap();
        let session = {
            let state = Arc::clone(state);
            std::thread::spawn(move || handle_client(&state, server))
        };
        writeln!(client, r#"{{"op":"submit","client":"t","kernel":"ME-V2-Safe","keys":2}}"#)
            .unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut accepted = String::new();
        reader.read_line(&mut accepted).unwrap();
        let id =
            json::parse(&accepted).unwrap().get("job").and_then(Value::as_str).map(String::from);
        let job = state.job(&id.expect("accepted names the job")).unwrap();
        (client, reader, session, job)
    }

    /// Waits until the session has latched `job`'s cancel token.
    fn wait_cancelled(job: &JobHandle) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !job.cancel.is_cancelled() {
            assert!(Instant::now() < deadline, "the session never cancelled the job");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_client_that_hangs_up_cancels_its_job() {
        let state = test_state("hangup");
        let (client, reader, session, job) = open_session(&state);
        drop((client, reader));
        wait_cancelled(&job);
        session.join().unwrap();
        std::fs::remove_dir_all(&state.opts.state_dir).ok();
    }

    #[test]
    fn an_in_stream_cancel_ends_the_stream_with_a_cancelled_verdict() {
        let state = test_state("cancel");
        let (mut client, mut reader, session, job) = open_session(&state);
        writeln!(client, r#"{{"op":"cancel"}}"#).unwrap();
        wait_cancelled(&job);
        state.run_job(&job);
        let mut line = String::new();
        while !line.contains("\"event\":\"verdict\"") {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "stream closed before the verdict");
        }
        assert!(line.contains("\"status\":\"cancelled\""), "{line}");
        session.join().unwrap();
        std::fs::remove_dir_all(&state.opts.state_dir).ok();
    }

    #[test]
    fn forward_new_lines_forwards_each_complete_line_once() {
        let path = std::env::temp_dir()
            .join(format!("microsampler-session-forward-{}.jsonl", std::process::id()));
        let mut out = Vec::new();
        assert_eq!(forward_new_lines(&path, 0, &mut out), Ok(0), "no journal yet");
        std::fs::write(&path, "first\n").unwrap();
        let offset = forward_new_lines(&path, 0, &mut out).unwrap();
        assert_eq!((offset, out.as_slice()), (6, b"first\n".as_slice()));
        // A second line and the start of a third, mid-append.
        File::options().append(true).open(&path).unwrap().write_all(b"second\nthi").unwrap();
        out.clear();
        let consumed = forward_new_lines(&path, offset, &mut out).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!((consumed, out.as_slice()), (7, b"second\n".as_slice()));
    }

    #[test]
    fn forward_new_lines_waits_for_a_newline_and_reports_write_failures() {
        struct HungUp;
        impl Write for HungUp {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let path = std::env::temp_dir()
            .join(format!("microsampler-session-partial-{}.jsonl", std::process::id()));
        let mut out = Vec::new();
        std::fs::write(&path, "partial").unwrap();
        assert_eq!(forward_new_lines(&path, 0, &mut out), Ok(0), "no complete line yet");
        std::fs::write(&path, "line\n").unwrap();
        assert_eq!(forward_new_lines(&path, 5, &mut out), Ok(0), "offset at the end");
        assert_eq!(forward_new_lines(&path, 99, &mut out), Ok(0), "offset past the end");
        assert!(out.is_empty());
        let e = forward_new_lines(&path, 0, &mut HungUp).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(e.starts_with("client write failed"), "{e}");
    }

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
            (SubmitError::SequenceExhausted, "sequence-exhausted"),
        ] {
            let v = busy_event(err);
            assert_eq!(v.get("schema").unwrap().as_str(), Some(SERVE_SCHEMA));
            assert_eq!(v.get("event").unwrap().as_str(), Some("busy"));
            assert_eq!(v.get("reason").unwrap().as_str(), Some(reason));
        }
    }
}
