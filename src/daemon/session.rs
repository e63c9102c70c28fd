//! One session per connection: a thread that reads frames, dispatches
//! them through the shared [`Service`](super::service::Service), and
//! writes response frames back.
//!
//! Error containment is the design rule: nothing a single client does —
//! oversized frames, garbage bytes, invalid requests, infeasible
//! programs, quota exhaustion — may take down the daemon or another
//! session. Frame-level damage (`bad-frame`) ends only the offending
//! connection (the stream may be out of sync past the bad frame);
//! request-level errors are answered and the session continues.

use super::service::Service;
use lap_obs::{FoldCursor, JournalConfig, Recorder};
use lap_proto::{read_frame, write_frame, ErrorCode, FrameError, Request, Response, MAX_FRAME_BYTES};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;

/// Decrements the active-session count and drops the shutdown handle on
/// the socket, so a panicking session thread can never leak its slot.
struct SessionSlot<'a>(&'a Service, Option<u64>);

impl Drop for SessionSlot<'_> {
    fn drop(&mut self) {
        if let Some(socket) = self.1 {
            self.0.forget_socket(socket);
        }
        self.0.close_session();
    }
}

/// Runs one accepted connection to completion. The session owns a
/// recorder with a flight-recorder journal: queries executed on this
/// connection record into it exactly like a one-shot `lapq run --journal`
/// would, without contending with other sessions.
pub(crate) fn run_session(stream: TcpStream, service: Arc<Service>) {
    let _slot = SessionSlot(&service, service.watch_socket(&stream));
    stream.set_nodelay(true).ok();
    let idle = service.config().idle_timeout_ms;
    if idle > 0 {
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(idle)))
            .ok();
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let session_recorder = Recorder::with_journal(JournalConfig::light());
    // Telemetry: this session's contribution to the shared feedback
    // store. The cursor makes each fold incremental — every journal event
    // is folded exactly once, at the periodic fold or the final one.
    let mut fold_cursor = FoldCursor::new();
    let fold_every = service.config().fold_every_requests;
    let mut queries_since_fold: u64 = 0;
    loop {
        let doc = match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Ok(doc) => doc,
            // Clean close or transport failure: nothing to answer.
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => break,
            // Unusable frame: answer, then end this session only — the
            // byte stream past a bad frame cannot be trusted.
            Err(FrameError::Malformed(message)) => {
                let resp = Response::Error { id: 0, code: ErrorCode::BadFrame, message };
                let _ = write_frame(&mut writer, &resp.to_json());
                break;
            }
        };
        let req = match Request::from_json(&doc) {
            Ok(req) => req,
            // Valid JSON, invalid request: answer and keep the session.
            Err(message) => {
                let resp = Response::Error { id: 0, code: ErrorCode::BadRequest, message };
                if write_frame(&mut writer, &resp.to_json()).is_err() {
                    break;
                }
                continue;
            }
        };
        let is_shutdown = matches!(req, Request::Shutdown { .. });
        let is_query = matches!(req, Request::Query { .. });
        if is_shutdown {
            // Flip the flag before the ack goes out: a client that has
            // seen the ack must observe `is_shutting_down()` as true.
            service.request_shutdown();
        }
        let resp = service.handle(req, &session_recorder);
        if is_query && fold_every > 0 {
            // Fold *before* the response goes out: a client that has read
            // its answer can immediately fetch a profile that includes it.
            queries_since_fold += 1;
            if queries_since_fold >= fold_every {
                service.fold_session(&session_recorder, &mut fold_cursor);
                queries_since_fold = 0;
            }
        }
        if write_frame(&mut writer, &resp.to_json()).is_err() {
            break;
        }
        if is_shutdown {
            break;
        }
    }
    // Final fold: whatever the periodic cadence left unfolded still
    // reaches the hub when the connection closes.
    service.fold_session(&session_recorder, &mut fold_cursor);
}
