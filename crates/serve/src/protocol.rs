//! The wire protocol: length-prefixed frames carrying line-oriented
//! text payloads.
//!
//! A frame is a little-endian `u32` payload length followed by that
//! many bytes, capped at [`MAX_FRAME`] — a malformed or hostile length
//! fails the read instead of allocating unbounded memory. Payloads are
//! plain text: the first line is `probranch-serve/1 <op>` (requests)
//! or `probranch-serve/1 <status>` (responses); requests follow with
//! `key=value` lines, responses with one blank line and then the body
//! verbatim. Hand-rolled like the trace store's encoder — the build
//! environment has no serialization dependency, and the handful of
//! fields does not need one.
//!
//! One request, one response, one connection: the client opens a
//! connection per request and the server closes it after answering.
//! That keeps framing trivially recoverable under injected connection
//! drops — there is no mid-stream state to resynchronize.

use std::io::{Read, Write};

/// Protocol magic + version, the first token of every payload.
pub const PROTOCOL: &str = "probranch-serve/1";

/// Frame payload ceiling (64 MiB): larger lengths fail the read.
pub const MAX_FRAME: usize = 1 << 26;

/// The canonical section order of a full `figures` run — the sweep
/// sections a client requests to reproduce the in-process stdout
/// byte-for-byte. The server-side handler resolves these names.
pub const SECTIONS: [&str; 10] = [
    "table2", "table1", "fig1", "fig6", "fig7", "fig8", "fig9", "table3", "accuracy", "cost",
];

/// Writes one frame: `u32` little-endian payload length, then the
/// payload.
///
/// # Errors
///
/// Propagates the underlying writer's errors; payloads over
/// [`MAX_FRAME`] are rejected with `InvalidInput`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. The buffer grows as payload bytes
/// arrive, so a header that claims [`MAX_FRAME`] and then stalls pins
/// no more memory than the bytes actually sent.
///
/// # Errors
///
/// Propagates the underlying reader's errors (including read
/// timeouts); a length over [`MAX_FRAME`] fails with `InvalidData`,
/// and a stream that ends inside the payload with `UnexpectedEof`.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = Vec::new();
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame payload ended after {} of {len} bytes", payload.len()),
        ));
    }
    Ok(payload)
}

/// One sweep request: which rendered section, at which scale, through
/// which engine, across how many workers, under what deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// Section name (one of [`SECTIONS`]).
    pub section: String,
    /// Experiment scale (`smoke`, `bench`, `paper`).
    pub scale: String,
    /// Engine name (`replay` or `reference`).
    pub engine: String,
    /// Worker count; `None` = the server's default.
    pub jobs: Option<usize>,
    /// Hard request deadline in milliseconds; `None` = no deadline.
    pub deadline_ms: Option<u64>,
}

impl SweepRequest {
    /// The coalescing key: the section, scale and engine. The deadline
    /// and the worker count are deliberately excluded: the deadline
    /// shapes whether the sweep finishes, not what it prints, and the
    /// printed bytes are identical for every worker count. Requests
    /// that differ only in them share one computation and its kept
    /// outcome.
    pub fn coalesce_key(&self) -> String {
        format!("{}/{}/{}", self.section, self.scale, self.engine)
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run one sweep section.
    Sweep(SweepRequest),
    /// Liveness/readiness probe; answered `ok` with body `pong`.
    Ping,
    /// Begin a graceful drain: finish in-flight sweeps, reject new
    /// ones, then exit.
    Shutdown,
}

impl Request {
    /// Serializes the request payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = String::new();
        match self {
            Request::Ping => out.push_str(&format!("{PROTOCOL} ping\n")),
            Request::Shutdown => out.push_str(&format!("{PROTOCOL} shutdown\n")),
            Request::Sweep(r) => {
                out.push_str(&format!("{PROTOCOL} sweep\n"));
                out.push_str(&format!("section={}\n", r.section));
                out.push_str(&format!("scale={}\n", r.scale));
                out.push_str(&format!("engine={}\n", r.engine));
                if let Some(jobs) = r.jobs {
                    out.push_str(&format!("jobs={jobs}\n"));
                }
                if let Some(ms) = r.deadline_ms {
                    out.push_str(&format!("deadline-ms={ms}\n"));
                }
            }
        }
        out.into_bytes()
    }

    /// Parses a request payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed line — returned
    /// to the client as a [`Status::BadRequest`] response.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_string())?;
        let mut lines = text.lines();
        let head = lines.next().unwrap_or_default();
        let op = match head.strip_prefix(PROTOCOL) {
            Some(rest) => rest.trim(),
            None => {
                return Err(format!(
                    "unknown protocol header {head:?} (want {PROTOCOL})"
                ))
            }
        };
        match op {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "sweep" => {
                let mut req = SweepRequest {
                    section: String::new(),
                    scale: "smoke".to_string(),
                    engine: "replay".to_string(),
                    jobs: None,
                    deadline_ms: None,
                };
                for line in lines {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    let Some((key, value)) = line.split_once('=') else {
                        return Err(format!("malformed request line {line:?}"));
                    };
                    match key {
                        "section" => req.section = value.to_string(),
                        "scale" => req.scale = value.to_string(),
                        "engine" => req.engine = value.to_string(),
                        "jobs" => {
                            req.jobs = Some(
                                value
                                    .parse()
                                    .map_err(|_| format!("bad jobs value {value:?}"))?,
                            );
                        }
                        "deadline-ms" => {
                            req.deadline_ms = Some(
                                value
                                    .parse()
                                    .map_err(|_| format!("bad deadline-ms value {value:?}"))?,
                            );
                        }
                        _ => return Err(format!("unknown request key {key:?}")),
                    }
                }
                if req.section.is_empty() {
                    return Err("sweep request missing section=".to_string());
                }
                Ok(Request::Sweep(req))
            }
            _ => Err(format!("unknown request op {op:?}")),
        }
    }
}

/// Response status line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The sweep ran; the body is the rendered section, byte-identical
    /// to the in-process run.
    Ok,
    /// Load-shed at admission: the in-flight budget was spent. The
    /// body names the budget; retry later.
    Overloaded,
    /// The server is draining; no new sweeps are admitted.
    ShuttingDown,
    /// The request frame did not parse or named unknown values.
    BadRequest,
    /// The sweep was cancelled — its deadline expired or a spurious
    /// cancel fired. The body carries the structured failure.
    Cancelled,
    /// The sweep failed; the body carries the structured
    /// `SupervisedError`-derived message.
    Failed,
}

impl Status {
    /// The status token on the wire.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::ShuttingDown => "shutting-down",
            Status::BadRequest => "bad-request",
            Status::Cancelled => "cancelled",
            Status::Failed => "failed",
        }
    }

    /// Parses a status token.
    pub fn parse(name: &str) -> Option<Status> {
        [
            Status::Ok,
            Status::Overloaded,
            Status::ShuttingDown,
            Status::BadRequest,
            Status::Cancelled,
            Status::Failed,
        ]
        .into_iter()
        .find(|s| s.name() == name)
    }
}

/// A response: a status plus a text body (the rendered section for
/// [`Status::Ok`], a diagnostic for everything else).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status line.
    pub status: Status,
    /// The body, verbatim.
    pub body: String,
}

impl Response {
    /// A response with this status and body.
    pub fn new(status: Status, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
        }
    }

    /// Serializes the response payload.
    pub fn encode(&self) -> Vec<u8> {
        format!("{PROTOCOL} {}\n\n{}", self.status.name(), self.body).into_bytes()
    }

    /// Parses a response payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed payload.
    pub fn parse(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "response is not UTF-8".to_string())?;
        let (head, body) = text
            .split_once("\n\n")
            .ok_or_else(|| "response missing header/body separator".to_string())?;
        let token = head
            .strip_prefix(PROTOCOL)
            .ok_or_else(|| format!("unknown protocol header {head:?} (want {PROTOCOL})"))?
            .trim();
        let status =
            Status::parse(token).ok_or_else(|| format!("unknown response status {token:?}"))?;
        Ok(Response {
            status,
            body: body.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_lengths_are_capped() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err(), "stream exhausted");
        // A hostile length fails instead of allocating 4 GiB.
        let mut hostile = (u32::MAX).to_le_bytes().to_vec();
        hostile.extend_from_slice(b"x");
        assert_eq!(
            read_frame(&mut hostile.as_slice()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    /// Serves `data` as fast as it is asked for, then EOF, and records
    /// the largest buffer it is handed.
    struct Recording<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_short_payload_allocates_only_what_arrived() {
        // A header claiming the whole cap, then a few hundred bytes.
        let mut served = (MAX_FRAME as u32).to_le_bytes().to_vec();
        served.extend_from_slice(&[b'x'; 300]);
        let mut reader = Recording {
            data: &served,
            largest: 0,
        };
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        assert!(
            reader.largest < 64 << 10,
            "read_frame handed the reader a {}-byte buffer for 300 payload bytes",
            reader.largest
        );
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Shutdown,
            Request::Sweep(SweepRequest {
                section: "fig6".into(),
                scale: "smoke".into(),
                engine: "replay".into(),
                jobs: Some(2),
                deadline_ms: Some(30_000),
            }),
            Request::Sweep(SweepRequest {
                section: "table3".into(),
                scale: "bench".into(),
                engine: "reference".into(),
                jobs: None,
                deadline_ms: None,
            }),
        ];
        for req in reqs {
            assert_eq!(Request::parse(&req.encode()).unwrap(), req);
        }
        assert!(Request::parse(b"not-a-protocol hello\n").is_err());
        assert!(Request::parse(&format!("{PROTOCOL} sweep\n").into_bytes()).is_err());
        assert!(Request::parse(
            &format!("{PROTOCOL} sweep\nsection=fig6\njobs=lots\n").into_bytes()
        )
        .is_err());
        assert!(Request::parse(&format!("{PROTOCOL} explode\n").into_bytes()).is_err());
    }

    #[test]
    fn responses_round_trip_with_bodies_verbatim() {
        // Bodies with blank lines must survive: only the FIRST blank
        // line separates header from body.
        let body = "FIG 6\n\nrow 1\nrow 2\n";
        for status in [
            Status::Ok,
            Status::Overloaded,
            Status::ShuttingDown,
            Status::BadRequest,
            Status::Cancelled,
            Status::Failed,
        ] {
            let resp = Response::new(status, body);
            assert_eq!(Response::parse(&resp.encode()).unwrap(), resp);
        }
        assert!(Response::parse(b"garbage").is_err());
    }

    #[test]
    fn coalesce_keys_ignore_deadlines() {
        let mut a = SweepRequest {
            section: "fig6".into(),
            scale: "smoke".into(),
            engine: "replay".into(),
            jobs: Some(2),
            deadline_ms: Some(1),
        };
        let key = a.coalesce_key();
        a.deadline_ms = None;
        assert_eq!(a.coalesce_key(), key);
        // Stdout is byte-identical across worker counts, so the worker
        // count does not split the key either.
        for jobs in [None, Some(0), Some(1), Some(64)] {
            a.jobs = jobs;
            assert_eq!(a.coalesce_key(), key);
        }
        a.section = "fig7".into();
        assert_ne!(a.coalesce_key(), key);
        a.section = "fig6".into();
        a.scale = "bench".into();
        assert_ne!(a.coalesce_key(), key);
        a.scale = "smoke".into();
        a.engine = "reference".into();
        assert_ne!(a.coalesce_key(), key);
    }
}
