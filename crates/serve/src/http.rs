//! A std-only HTTP/1.1 front end over [`JobService`].
//!
//! Deliberately hand-rolled on [`std::net::TcpListener`]: no tokio, no
//! hyper, no serde — the workspace depends on no external crate
//! (DESIGN.md §7) and builds from a clean clone with no network. The
//! subset implemented is exactly what the service needs: persistent
//! (keep-alive) connections without pipelining, `Content-Length`
//! bodies, and a handful of fixed routes:
//!
//! | Route                | Method | Body / reply                           |
//! |----------------------|--------|----------------------------------------|
//! | `/submit`            | POST   | job JSON (+ optional `deadline_ms`) → `{status,id,key}` |
//! | `/status/<id>`       | GET    | `{id,status,key[,error][,witness]}`    |
//! | `/result/<id>`       | GET    | canonical result bytes (octet-stream)  |
//! | `/cancel/<id>`       | POST   | `{cancelled}`                          |
//! | `/healthz`           | GET    | `{status:"ok"}`                        |
//! | `/metrics`           | GET    | text counters/gauges                   |
//! | `/conformance`       | GET    | requirements registry + witness counts |
//! | `/shutdown`          | POST   | `{status:"shutting-down"}`, then stops |
//! | `/cluster`           | GET    | ring state, peers, per-peer counters   |
//! | `/peer/gossip`       | POST   | membership exchange (cluster nodes)    |
//! | `/peer/get/<key>`    | GET    | stored entry as a verified peer frame  |
//! | `/peer/put/<key>`    | POST   | replicate an entry (frame, fail-closed)|
//! | `/peer/execute`      | POST   | job JSON → `{status,id,key}`, no re-forward |
//! | `/peer/leave`        | POST   | `{id}` → drop the peer from membership |
//!
//! The acceptor hands each connection to its own thread, which serves
//! request after request until the client sends `Connection: close`,
//! the connection idles past `IO_TIMEOUT`, a request fails to parse or
//! arrives pipelined behind another, or the server stops. At most
//! `MAX_CONNECTIONS` such threads live at once; past the cap the
//! acceptor serves one request itself and replies `Connection: close`.
//! Request handling never blocks on job execution (that is the worker
//! pool's business), so intake stays responsive even while long
//! campaigns run.
//!
//! On the client side, [`request`] keeps one idle connection per
//! thread and reuses it for the next request to the same address.

use crate::json::Json;
use crate::service::{JobService, Submission, MAX_RESULT_BYTES};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

const MAX_HEAD: usize = 16 * 1024;
const MAX_BODY: usize = 8 * 1024 * 1024;
/// The largest reply body [`request`] accepts: the biggest entry the
/// service stores ([`MAX_RESULT_BYTES`]) plus room for the peer-frame
/// header and witness record `/peer/get` wraps around it.
const MAX_REPLY_BODY: usize = MAX_RESULT_BYTES + MAX_HEAD;
/// Bounds every read and write, and how long a kept-alive connection
/// may sit idle between requests.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// The most connections served at once, each by its own thread.
const MAX_CONNECTIONS: usize = 64;
/// The most body memory reserved before the bytes arrive; past it the
/// buffer grows with what is actually read.
const BODY_RESERVE: usize = 1024 * 1024;

/// Sends one HTTP message: head and body leave in one vectored write, so
/// the peer wakes once; a short write is followed by the rest.
fn write_message<W: Write>(w: &mut W, head: &str, body: &[u8]) -> io::Result<()> {
    let mut bufs = [IoSlice::new(head.as_bytes()), IoSlice::new(body)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// A parsed request: method, path, body, and whether the connection
/// may carry another request after this one.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
}

/// Reads an HTTP head of at most `MAX_HEAD` bytes off `stream` into
/// `buf` and returns the head's length; the bytes past the head's
/// blank line are the start of the body. On error, `buf` holds what
/// arrived before it.
fn read_head(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = find_head_end(buf) {
            return Ok(pos);
        }
        if buf.len() > MAX_HEAD {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// The value of the head's first `name` header, if it carries one.
fn header<'h>(head: &'h str, name: &str) -> Option<&'h str> {
    head.split("\r\n").skip(1).find_map(|line| {
        let (n, value) = line.split_once(':')?;
        n.trim().eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

/// The head's `Content-Length`, if it carries one.
fn content_length(head: &str) -> io::Result<Option<usize>> {
    header(head, "content-length")
        .map(|v| {
            v.parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))
        })
        .transpose()
}

/// Whether the head says the connection closes after this message.
fn closes(head: &str) -> bool {
    header(head, "connection")
        .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")))
}

/// Reads a body of exactly `len` bytes, of which `body` already holds
/// the start. The read is sized from `len`, but at most `BODY_RESERVE`
/// is reserved up front: past that, memory grows only as bytes arrive,
/// never to a length a peer merely claims.
fn read_body(stream: &mut TcpStream, mut body: Vec<u8>, len: usize) -> io::Result<Vec<u8>> {
    if body.len() < len {
        let missing = len - body.len();
        body.reserve(missing.min(BODY_RESERVE));
        Read::take(stream, missing as u64).read_to_end(&mut body)?;
        if body.len() < len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
    }
    body.truncate(len);
    Ok(body)
}

/// Reads one HTTP/1.1 request off `stream`; `None` when the peer
/// hangs up or stays silent past the read timeout before sending its
/// first byte. Bytes that arrived past its body would be a pipelined
/// request, which is not supported: the request is served, but the
/// connection closes after it.
fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut buf = Vec::new();
    let head_end = match read_head(stream, &mut buf) {
        Ok(end) => end,
        Err(_) if buf.is_empty() => return Ok(None),
        Err(e) => return Err(e),
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
    let request_line = head.split("\r\n").next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_owned();
    let path = parts.next().unwrap_or_default().to_owned();
    if method.is_empty() || !path.starts_with('/') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad request line",
        ));
    }
    let content_length = content_length(head)?.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let close = closes(head);
    let rest = buf.split_off(head_end + 4);
    let keep_alive = !close && rest.len() <= content_length;
    let body = read_body(stream, rest, content_length)?;
    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

struct Response {
    code: u16,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    fn json(code: u16, v: &Json) -> Response {
        Response {
            code,
            content_type: "application/json",
            body: v.encode().into_bytes(),
        }
    }

    fn error(code: u16, msg: &str) -> Response {
        Self::json(code, &Json::obj([("error", Json::str(msg))]))
    }

    fn write(self, stream: &mut TcpStream, keep_alive: bool) -> io::Result<()> {
        let reason = match self.code {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let head = format!(
            "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.code,
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        write_message(stream, &head, &self.body)
    }
}

fn handle(service: &JobService, req: &Request, stop: &AtomicBool) -> Response {
    let route = (req.method.as_str(), req.path.as_str());
    match route {
        ("GET", "/healthz") => Response::json(200, &Json::obj([("status", Json::str("ok"))])),
        ("GET", "/metrics") => Response {
            code: 200,
            content_type: "text/plain; charset=utf-8",
            body: service.metrics_text().into_bytes(),
        },
        ("GET", "/conformance") => handle_conformance(service),
        ("GET", "/cluster") => handle_cluster(service),
        ("POST", "/peer/gossip") => handle_peer_gossip(service, &req.body),
        ("POST", "/peer/execute") => handle_peer_execute(service, &req.body),
        ("POST", "/peer/leave") => handle_peer_leave(service, &req.body),
        ("POST", "/shutdown") => {
            stop.store(true, Ordering::Release);
            Response::json(200, &Json::obj([("status", Json::str("shutting-down"))]))
        }
        ("POST", "/submit") => handle_submit(service, &req.body),
        (method, path) => {
            if let Some(hex) = path.strip_prefix("/peer/get/") {
                if method != "GET" {
                    return Response::error(405, "use GET");
                }
                return handle_peer_get(service, hex);
            }
            if let Some(hex) = path.strip_prefix("/peer/put/") {
                if method != "POST" {
                    return Response::error(405, "use POST");
                }
                return handle_peer_put(service, hex, &req.body);
            }
            if let Some(id) = path.strip_prefix("/status/").and_then(|s| s.parse().ok()) {
                if method != "GET" {
                    return Response::error(405, "use GET");
                }
                return handle_status(service, id);
            }
            if let Some(id) = path.strip_prefix("/result/").and_then(|s| s.parse().ok()) {
                if method != "GET" {
                    return Response::error(405, "use GET");
                }
                return handle_result(service, id);
            }
            if let Some(id) = path.strip_prefix("/cancel/").and_then(|s| s.parse().ok()) {
                if method != "POST" {
                    return Response::error(405, "use POST");
                }
                let cancelled = service.cancel(id);
                return Response::json(200, &Json::obj([("cancelled", Json::Bool(cancelled))]));
            }
            Response::error(404, "no such route")
        }
    }
}

fn handle_submit(service: &JobService, body: &[u8]) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body must be UTF-8 JSON"),
    };
    let parsed = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let request = match crate::job::JobRequest::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => return Response::error(400, &e),
    };
    if let Err(e) = request.validate() {
        return Response::error(400, &e);
    }
    let deadline = parsed
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .map(Duration::from_millis);
    let (status, id) = match service.submit(request, deadline) {
        Submission::Cached(id) => ("cached", id),
        Submission::Coalesced(id) => ("coalesced", id),
        Submission::Queued(id) => ("queued", id),
        Submission::QueueFull => return Response::error(503, "queue full, retry later"),
    };
    let key = service
        .status(id)
        .map(|(_, k, _)| k.to_hex())
        .unwrap_or_default();
    Response::json(
        202,
        &Json::obj([
            ("status", Json::str(status)),
            ("id", Json::UInt(id)),
            ("key", Json::Str(key)),
        ]),
    )
}

fn handle_status(service: &JobService, id: u64) -> Response {
    match service.status(id) {
        None => Response::error(404, "unknown job"),
        Some((status, key, error)) => {
            let mut fields = vec![
                ("id".to_owned(), Json::UInt(id)),
                ("status".to_owned(), Json::str(status.name())),
                ("key".to_owned(), Json::Str(key.to_hex())),
            ];
            if let Some(e) = error {
                fields.push(("error".to_owned(), Json::Str(e)));
            }
            if let Some(w) = service.witness(id) {
                fields.push(("witness".to_owned(), witness_json(&w)));
            }
            Response::json(200, &Json::Obj(fields))
        }
    }
}

/// The wire form of a witness record. Chain values are 16-hex-digit
/// strings (JSON numbers lose u64 precision past 2^53); everything a
/// client needs to recompute `chain = mix64(prev ^ fnv1a64(canonical))`
/// offline is present.
fn witness_json(w: &st_conformance::WitnessRecord) -> Json {
    Json::obj([
        ("seq", Json::UInt(w.seq)),
        (
            "requirements",
            Json::Arr(w.ids.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        ("config", Json::Str(st_conformance::key_hex(w.config))),
        ("result", Json::Str(st_conformance::key_hex(w.result))),
        ("prev", Json::Str(format!("{:016x}", w.prev))),
        ("chain", Json::Str(format!("{:016x}", w.chain))),
    ])
}

/// `GET /conformance`: the full builtin requirements registry (id,
/// level, title, text, tags, static floor) joined with this service
/// instance's runtime witness tallies, plus the log head and length.
fn handle_conformance(service: &JobService) -> Response {
    let registry = st_conformance::Registry::builtin();
    let (head, len, counts) = service.witness_summary();
    let count_of = |id: &str| {
        counts
            .iter()
            .find(|(cid, _)| cid == id)
            .map_or(0, |&(_, n)| n)
    };
    let requirements: Vec<Json> = registry
        .requirements
        .iter()
        .map(|r| {
            Json::obj([
                ("id", Json::Str(r.id.clone())),
                ("level", Json::str(r.level.name())),
                ("title", Json::Str(r.title.clone())),
                ("text", Json::Str(r.text.clone())),
                (
                    "tags",
                    Json::Arr(r.tags.iter().map(|t| Json::Str(t.clone())).collect()),
                ),
                ("min_witnesses", Json::UInt(r.min_witnesses)),
                ("witnessed", Json::UInt(count_of(&r.id))),
            ])
        })
        .collect();
    Response::json(
        200,
        &Json::obj([
            ("registry_version", Json::UInt(registry.version)),
            (
                "registry_hash",
                Json::Str(st_conformance::key_hex(registry.content_hash())),
            ),
            (
                "witness_genesis",
                Json::Str(format!("{:016x}", st_conformance::witness_genesis())),
            ),
            ("witness_head", Json::Str(format!("{head:016x}"))),
            ("witness_records", Json::UInt(len)),
            ("requirements", Json::Arr(requirements)),
        ]),
    )
}

/// `GET /cluster`: ring/membership/counter snapshot, or
/// `{"clustered": false}` on a standalone node.
fn handle_cluster(service: &JobService) -> Response {
    match service.cluster() {
        Some(cluster) => Response::json(200, &cluster.cluster_json()),
        None => Response::json(200, &Json::obj([("clustered", Json::Bool(false))])),
    }
}

/// `POST /peer/gossip`: fold the sender's membership into ours, reply
/// with our snapshot. Only meaningful on clustered nodes.
fn handle_peer_gossip(service: &JobService, body: &[u8]) -> Response {
    let Some(cluster) = service.cluster() else {
        return Response::error(409, "node is not clustered");
    };
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body must be UTF-8 JSON"),
    };
    let payload = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    Response::json(200, &cluster.handle_gossip(&payload))
}

/// `POST /peer/leave`: a peer's clean goodbye — drop it immediately.
fn handle_peer_leave(service: &JobService, body: &[u8]) -> Response {
    let Some(cluster) = service.cluster() else {
        return Response::error(409, "node is not clustered");
    };
    let id = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_owned));
    match id {
        Some(id) => {
            let removed = cluster.handle_leave(&id);
            Response::json(200, &Json::obj([("removed", Json::Bool(removed))]))
        }
        None => Response::error(400, "body must be {\"id\": \"...\"}"),
    }
}

/// `GET /peer/get/<keyhex>`: the stored entry wrapped in a verified
/// peer frame, carrying this node's witness record for the key when an
/// execution here minted one. Works unclustered too — the store is the
/// store.
fn handle_peer_get(service: &JobService, hex: &str) -> Response {
    let Some(key) = crate::hash::ContentKey::from_hex(hex) else {
        return Response::error(400, "bad content key");
    };
    match service.store.get(key) {
        None => Response::error(404, "miss"),
        Some(bytes) => {
            let frame = st_fabric::Frame {
                key: key.0,
                payload: bytes,
                witness: service.witness_for_key(key),
            };
            Response {
                code: 200,
                content_type: "application/octet-stream",
                body: frame.encode(),
            }
        }
    }
}

/// `POST /peer/put/<keyhex>`: store a replicated entry. Fail-closed —
/// the frame must verify against the key in the path (key echo,
/// payload checksum, witness consistency) before a byte is stored;
/// failures count into the store's corrupt-discard ledger and answer
/// 400 (ST-CLU-015).
fn handle_peer_put(service: &JobService, hex: &str, body: &[u8]) -> Response {
    let Some(key) = crate::hash::ContentKey::from_hex(hex) else {
        return Response::error(400, "bad content key");
    };
    match crate::cluster::decode_verified(body, key) {
        Ok(frame) => {
            service.store.put(key, frame.payload);
            Response::json(200, &Json::obj([("stored", Json::Bool(true))]))
        }
        Err(e) => {
            service
                .store
                .stats
                .corrupt_discards
                .fetch_add(1, Ordering::Relaxed);
            Response::error(400, &e)
        }
    }
}

/// `POST /peer/execute`: a forwarded job. Identical wire shape to
/// `/submit`, but the job is pinned to this node — it will execute
/// here, never be re-forwarded, which is what makes forwarding
/// loop-free under transient ring disagreement.
fn handle_peer_execute(service: &JobService, body: &[u8]) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body must be UTF-8 JSON"),
    };
    let parsed = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let request = match crate::job::JobRequest::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => return Response::error(400, &e),
    };
    if let Err(e) = request.validate() {
        return Response::error(400, &e);
    }
    let deadline = parsed
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .map(Duration::from_millis);
    let (status, id) = match service.submit_peer(request, deadline) {
        Submission::Cached(id) => ("cached", id),
        Submission::Coalesced(id) => ("coalesced", id),
        Submission::Queued(id) => ("queued", id),
        Submission::QueueFull => return Response::error(503, "queue full, retry later"),
    };
    let key = service
        .status(id)
        .map(|(_, k, _)| k.to_hex())
        .unwrap_or_default();
    Response::json(
        202,
        &Json::obj([
            ("status", Json::str(status)),
            ("id", Json::UInt(id)),
            ("key", Json::Str(key)),
        ]),
    )
}

fn handle_result(service: &JobService, id: u64) -> Response {
    match service.status(id) {
        None => Response::error(404, "unknown job"),
        Some((status, _, _)) if !status.is_terminal() => {
            Response::error(409, &format!("job is {}", status.name()))
        }
        Some(_) => match service.result(id) {
            Some(bytes) => Response {
                code: 200,
                content_type: "application/octet-stream",
                body: bytes,
            },
            None => Response::error(409, "job did not produce a result"),
        },
    }
}

/// What the acceptor shares with the connection threads.
struct Shared {
    service: Arc<JobService>,
    stop: AtomicBool,
    addr: SocketAddr,
    conns: Mutex<Connections>,
}

/// The live connections: a cloned handle of each, so a shutdown can
/// close it under a thread blocked reading it, and the threads serving
/// them.
#[derive(Default)]
struct Connections {
    next_id: u64,
    open: HashMap<u64, TcpStream>,
    threads: Vec<JoinHandle<()>>,
}

impl Shared {
    /// Hands `stream` to a connection thread, or serves one request on
    /// it here when `MAX_CONNECTIONS` threads are live.
    fn accept(self: &Arc<Self>, stream: TcpStream) {
        let mut conns = self.conns.lock().expect("connection registry poisoned");
        conns.threads.retain(|t| !t.is_finished());
        if conns.threads.len() < MAX_CONNECTIONS {
            let shared = Arc::clone(self);
            // A failed spawn drops the stream, closing the connection.
            if let Ok(t) = std::thread::Builder::new()
                .name("st-serve-conn".to_owned())
                .spawn(move || shared.serve_connection(stream, true))
            {
                conns.threads.push(t);
            }
            return;
        }
        drop(conns);
        self.serve_connection(stream, false);
    }

    /// Serves requests on `stream` until the peer closes it or sends
    /// `Connection: close`, it idles past `IO_TIMEOUT`, a request fails
    /// to parse or arrives pipelined, or the server stops. Without
    /// `keep_alive`, it closes after the first reply.
    fn serve_connection(&self, mut stream: TcpStream, keep_alive: bool) {
        let Some(id) = self.register(&stream) else {
            return;
        };
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_nodelay(true);
        loop {
            let (response, keep) = match read_request(&mut stream) {
                // Between requests, a peer that hangs up or stays silent
                // past the timeout ends the connection without a reply.
                Ok(None) => break,
                Ok(Some(req)) => {
                    let stats = &self.service.stats;
                    stats.http_requests.fetch_add(1, Ordering::Relaxed);
                    (handle(&self.service, &req, &self.stop), req.keep_alive)
                }
                Err(e) => (Response::error(400, &e.to_string()), false),
            };
            let stopping = self.stop.load(Ordering::Acquire);
            let keep = keep && keep_alive && !stopping;
            let written = response.write(&mut stream, keep);
            if stopping {
                // Wake a blocking accept so the acceptor sees the stop
                // (this thread may have just served `/shutdown`).
                let _ = TcpStream::connect(self.addr);
            }
            if written.is_err() || !keep {
                break;
            }
        }
        self.deregister(id);
    }

    /// Records a clone of `stream` so a shutdown can close it. `None`
    /// once the server is stopping: a connection that arrives then is
    /// dropped unserved.
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let handle = stream.try_clone().ok()?;
        let mut conns = self.conns.lock().expect("connection registry poisoned");
        if self.stop.load(Ordering::Acquire) {
            return None;
        }
        let id = conns.next_id;
        conns.next_id += 1;
        conns.open.insert(id, handle);
        let stats = &self.service.stats;
        stats.http_connections.fetch_add(1, Ordering::Relaxed);
        stats.http_connections_open.fetch_add(1, Ordering::Relaxed);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.conns
            .lock()
            .expect("connection registry poisoned")
            .open
            .remove(&id);
        let stats = &self.service.stats;
        stats.http_connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Closes every live connection, so a thread blocked reading one
    /// returns at once, then joins the connection threads.
    fn close_connections(&self) {
        let threads = {
            let mut conns = self.conns.lock().expect("connection registry poisoned");
            for stream in conns.open.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            std::mem::take(&mut conns.threads)
        };
        for t in threads {
            let _ = t.join();
        }
    }
}

/// A running server: acceptor thread, connection threads and the
/// shared service.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving on a background acceptor thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, service: Arc<JobService>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            stop: AtomicBool::new(false),
            addr: local,
            conns: Mutex::default(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("st-serve-acceptor".to_owned())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        if let Ok(stream) = stream {
                            shared.accept(stream);
                        }
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                })?
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The service behind the server.
    pub fn service(&self) -> &Arc<JobService> {
        &self.shared.service
    }

    /// Blocks until the acceptor exits (i.e. until a client POSTs
    /// `/shutdown`), then closes the live connections and stops the
    /// worker pool. The foreground-server mode of the CLI.
    pub fn join_acceptor(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.shared.stop.store(true, Ordering::Release);
        self.shared.close_connections();
        self.shared.service.shutdown();
    }

    /// Stops accepting, closes the live connections, joins the acceptor
    /// and the connection threads, and shuts the worker pool down.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Unblock a blocking accept with a throwaway connection, and an
        // acceptor serving a request at the cap by closing its stream.
        let _ = TcpStream::connect(self.shared.addr);
        self.shared.close_connections();
        self.join_acceptor();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

thread_local! {
    /// This thread's idle kept-alive connection and its server address.
    static IDLE: RefCell<Option<(SocketAddr, TcpStream)>> = const { RefCell::new(None) };
}

/// Blocking HTTP client used by the CLI, the cluster layer, the tests
/// and the benchmarks: sends `method path` with `body`, returns
/// `(status code, body bytes)`.
///
/// The reply must carry a `Content-Length` (this server always sends
/// one) of at most `MAX_REPLY_BODY`, and exactly that many body bytes
/// are read, so a peer that keeps sending cannot grow the caller's
/// memory without bound.
///
/// Each thread keeps the connection of its last complete reply open
/// and reuses it for its next request to the same address. If the
/// server has closed that idle connection, so that it fails before
/// any reply byte arrives, the request is sent once more on a fresh
/// connection. The server closes connections only between requests,
/// `/submit` is content-keyed and the other routes are idempotent, so
/// the resend never runs anything twice. A fresh connection is never
/// retried, and neither is a reply that has started.
///
/// # Errors
///
/// Propagates connect/read/write failures; `InvalidData` for a
/// malformed reply, one without a length or one longer than the cap;
/// `UnexpectedEof` for a body shorter than its length.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let idle = IDLE.with_borrow_mut(|slot| slot.take_if(|(a, _)| *a == addr));
    if let Some((_, mut stream)) = idle {
        let mut raw = Vec::new();
        match exchange(&mut stream, &head, body, &mut raw) {
            Err(e)
                if raw.is_empty()
                    && matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::BrokenPipe
                    ) => {}
            reply => return keep_idle(addr, stream, reply),
        }
    }
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let reply = exchange(&mut stream, &head, body, &mut Vec::new());
    keep_idle(addr, stream, reply)
}

/// Parks `stream` as this thread's idle connection if `reply` says it
/// can carry another request.
fn keep_idle(
    addr: SocketAddr,
    stream: TcpStream,
    reply: io::Result<(u16, Vec<u8>, bool)>,
) -> io::Result<(u16, Vec<u8>)> {
    let (code, body, reusable) = reply?;
    if reusable {
        IDLE.with_borrow_mut(|slot| *slot = Some((addr, stream)));
    }
    Ok((code, body))
}

/// Sends one request on `stream` and reads its reply: the status, the
/// body, and whether the connection can be reused (the reply ended at
/// its length and did not say `Connection: close`). `raw` collects the
/// reply's bytes as they arrive.
fn exchange(
    stream: &mut TcpStream,
    head: &str,
    body: &[u8],
    raw: &mut Vec<u8>,
) -> io::Result<(u16, Vec<u8>, bool)> {
    write_message(stream, head, body)?;
    let head_end = read_head(stream, raw)?;
    let reply = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let code: u16 = reply
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let len = content_length(reply)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without length"))?;
    if len > MAX_REPLY_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "response exceeds the size cap",
        ));
    }
    let close = closes(reply);
    let rest = raw.split_off(head_end + 4);
    let reusable = !close && rest.len() <= len;
    let body = read_body(stream, rest, len)?;
    Ok((code, body, reusable))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    /// Takes at most 7 bytes per write, across slice boundaries.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let before = self.0.len();
            self.0.extend(bufs.iter().flat_map(|b| b.iter()).take(7));
            Ok(self.0.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_still_deliver_the_whole_message() {
        let head = "HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n";
        for body in [&[][..], b"ok", &[0xa5; 5000]] {
            let mut w = Trickle(Vec::new());
            write_message(&mut w, head, body).expect("writes");
            assert_eq!(w.0, [head.as_bytes(), body].concat());
        }
    }

    fn serve_manual() -> Server {
        let svc = JobService::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        });
        Server::bind("127.0.0.1:0", svc).expect("bind ephemeral")
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let server = serve_manual();
        let (code, body) = request(server.addr(), "GET", "/healthz", b"").unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, br#"{"status":"ok"}"#);
        let (code, body) = request(server.addr(), "GET", "/metrics", b"").unwrap();
        assert_eq!(code, 200);
        assert!(String::from_utf8(body)
            .unwrap()
            .contains("st_serve_queue_depth"));
    }

    #[test]
    fn unknown_routes_and_bad_bodies_are_client_errors() {
        let server = serve_manual();
        let (code, _) = request(server.addr(), "GET", "/nope", b"").unwrap();
        assert_eq!(code, 404);
        let (code, _) = request(server.addr(), "POST", "/submit", b"not json").unwrap();
        assert_eq!(code, 400);
        let (code, _) = request(server.addr(), "POST", "/submit", br#"{"type":"warp"}"#).unwrap();
        assert_eq!(code, 400);
        let (code, _) = request(server.addr(), "GET", "/status/999", b"").unwrap();
        assert_eq!(code, 404);
        let (code, _) = request(server.addr(), "POST", "/status/999", b"").unwrap();
        assert_eq!(code, 405);
    }

    #[test]
    fn results_larger_than_a_request_body_round_trip() {
        let server = serve_manual();
        let job = br#"{"type":"sim","scenario":"pingpong","backend":"event","seeds":[1],"cycles":10,"trace_cycles":10,"budget_fs":1000000000}"#;
        let request_ = crate::job::JobRequest::from_json(
            &Json::parse(std::str::from_utf8(job).unwrap()).unwrap(),
        )
        .unwrap();
        // Seed the store so the submission is a cache hit whose stored
        // result is larger than any request body may be.
        let key = crate::hash::ContentKey::of(&request_.to_canonical_bytes());
        let result: Vec<u8> = (0..MAX_BODY + MAX_BODY / 8)
            .map(|i| (i % 251) as u8)
            .collect();
        server.service().store.put(key, result.clone());
        let (code, reply) = request(server.addr(), "POST", "/submit", job).unwrap();
        assert_eq!(code, 202);
        let reply = Json::parse(&String::from_utf8_lossy(&reply)).unwrap();
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("cached"));
        let id = reply.get("id").and_then(Json::as_u64).unwrap();
        let (code, body) = request(server.addr(), "GET", &format!("/result/{id}"), b"").unwrap();
        assert_eq!(code, 200);
        assert!(body == result, "the result survived the wire");
    }

    /// A one-connection peer that reads the request, then sends `head`
    /// and streams filler until `limit` bytes or the caller hangs up.
    /// Joins to the number of bytes it got out.
    fn rogue_peer(head: String, limit: usize) -> (SocketAddr, JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream).unwrap().expect("a request");
            let mut sent = stream.write(head.as_bytes()).unwrap_or(0);
            let chunk = vec![b'x'; 64 * 1024];
            while sent < limit {
                match stream.write(&chunk[..chunk.len().min(limit - sent)]) {
                    Ok(n) if n > 0 => sent += n,
                    _ => break,
                }
            }
            sent
        });
        (addr, peer)
    }

    #[test]
    fn replies_past_the_size_cap_fail_closed() {
        let endless = 4 * MAX_BODY;
        let cases = [
            // No blank line ever ends the head.
            (
                "HTTP/1.1 200 OK\r\n".to_owned(),
                endless,
                io::ErrorKind::InvalidData,
            ),
            // No length: the body would be "until close".
            (
                "HTTP/1.1 200 OK\r\n\r\n".to_owned(),
                endless,
                io::ErrorKind::InvalidData,
            ),
            // A length over the cap.
            (
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                    MAX_REPLY_BODY + 1
                ),
                endless,
                io::ErrorKind::InvalidData,
            ),
            // A body shorter than its length.
            (
                "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n".to_owned(),
                "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n".len() + 10,
                io::ErrorKind::UnexpectedEof,
            ),
        ];
        for (head, limit, kind) in cases {
            let (addr, peer) = rogue_peer(head.clone(), limit);
            let err = request(addr, "GET", "/healthz", b"").expect_err(&head);
            assert_eq!(err.kind(), kind, "{head:?}: {err}");
            let sent = peer.join().unwrap();
            if limit == endless {
                assert!(sent < limit, "{head:?}: the caller hung up early");
            }
        }
    }

    #[test]
    fn a_huge_length_then_an_early_close_is_unexpected_eof() {
        // A length inside the cap, so only the missing bytes give the
        // lie away.
        let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {MAX_REPLY_BODY}\r\n\r\n");
        let (addr, peer) = rogue_peer(head.clone(), head.len() + 10);
        let err = request(addr, "GET", "/healthz", b"").expect_err("short body");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        peer.join().unwrap();
    }

    /// A complete reply that leaves the connection open.
    const KEPT_ALIVE_OK: &str = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
    const HEALTHZ: &str = "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n";

    #[test]
    fn a_kept_alive_connection_the_peer_closed_is_replaced() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Answers one request per connection with keep-alive, then
        // hangs up, as a server does at its idle timeout.
        let peer = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                read_request(&mut stream).unwrap().expect("a request");
                stream.write_all(KEPT_ALIVE_OK.as_bytes()).unwrap();
            }
        });
        for path in ["/first", "/second"] {
            let reply = request(addr, "GET", path, b"").unwrap();
            assert_eq!(reply, (200, b"ok".to_vec()), "{path}");
        }
        peer.join().unwrap();
    }

    #[test]
    fn a_reused_connection_that_dies_mid_reply_is_not_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream).unwrap().expect("a request");
            stream.write_all(KEPT_ALIVE_OK.as_bytes()).unwrap();
            read_request(&mut stream).unwrap().expect("a request");
            stream.write_all(b"HTTP/1.1 200").unwrap();
            listener
        });
        request(addr, "GET", "/first", b"").unwrap();
        let err = request(addr, "GET", "/second", b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        let listener = peer.join().unwrap();
        listener.set_nonblocking(true).unwrap();
        assert_eq!(
            listener.accept().unwrap_err().kind(),
            io::ErrorKind::WouldBlock,
            "the request was sent again on a new connection"
        );
    }

    fn live_threads(server: &Server) -> usize {
        let conns = server.shared.conns.lock().unwrap();
        conns.threads.iter().filter(|t| !t.is_finished()).count()
    }

    #[test]
    fn past_the_connection_cap_one_request_is_served_and_closed() {
        let server = serve_manual();
        let held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let mut stream = TcpStream::connect(server.addr()).unwrap();
                stream.write_all(HEALTHZ.as_bytes()).unwrap();
                let mut buf = Vec::new();
                let end = read_head(&mut stream, &mut buf).unwrap();
                let head = std::str::from_utf8(&buf[..end]).unwrap();
                assert!(head.contains("Connection: keep-alive"), "{head}");
                stream
            })
            .collect();
        assert_eq!(live_threads(&server), MAX_CONNECTIONS);
        let mut extra = TcpStream::connect(server.addr()).unwrap();
        extra.write_all(HEALTHZ.as_bytes()).unwrap();
        let mut reply = String::new();
        extra.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("Connection: close"), "{reply}");
        assert_eq!(
            request(server.addr(), "GET", "/healthz", b"").unwrap().0,
            200
        );
        assert!(
            IDLE.with_borrow(Option::is_none),
            "a `Connection: close` reply left its stream for reuse"
        );
        assert!(live_threads(&server) <= MAX_CONNECTIONS);
        drop(held);
    }

    #[test]
    fn pipelined_requests_get_one_reply_then_close() {
        let server = serve_manual();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(format!("{HEALTHZ}{HEALTHZ}").as_bytes())
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert_eq!(reply.matches("HTTP/1.1 ").count(), 1, "{reply}");
        assert!(reply.contains("Connection: close"), "{reply}");
    }

    #[test]
    fn shutdown_is_prompt_with_an_idle_kept_alive_connection() {
        for via_route in [false, true] {
            let mut server = serve_manual();
            // Leaves this thread's connection open and idle.
            request(server.addr(), "GET", "/healthz", b"").unwrap();
            let open = &server.service().stats.http_connections_open;
            assert_eq!(open.load(Ordering::Relaxed), 1);
            let started = std::time::Instant::now();
            if via_route {
                let addr = server.addr();
                let stop = std::thread::spawn(move || request(addr, "POST", "/shutdown", b""));
                assert_eq!(stop.join().unwrap().unwrap().0, 200);
                server.join_acceptor();
            } else {
                server.shutdown();
            }
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "via_route {via_route}: took {:?}",
                started.elapsed()
            );
        }
    }

    #[test]
    fn shutdown_route_stops_the_acceptor() {
        let mut server = serve_manual();
        let (code, _) = request(server.addr(), "POST", "/shutdown", b"").unwrap();
        assert_eq!(code, 200);
        server.shutdown(); // must be idempotent with the route
        assert!(
            request(server.addr(), "GET", "/healthz", b"").is_err(),
            "acceptor is gone"
        );
    }
}
