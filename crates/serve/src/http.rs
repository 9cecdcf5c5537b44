//! A std-only HTTP/1.1 front end over [`JobService`].
//!
//! Deliberately hand-rolled on [`std::net::TcpListener`]: no tokio, no
//! hyper, no serde — the workspace depends on no external crate
//! (DESIGN.md §7) and builds from a clean clone with no network. The
//! subset implemented is exactly what the service needs: one request
//! per connection (`Connection: close`), `Content-Length` bodies, and
//! a handful of fixed routes:
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
//! Connections are served sequentially by one acceptor thread; request
//! handling never blocks on job execution (that is the worker pool's
//! business), so the accept loop stays responsive even while long
//! campaigns run.

use crate::json::Json;
use crate::service::{JobService, Submission, MAX_RESULT_BYTES};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const MAX_HEAD: usize = 16 * 1024;
const MAX_BODY: usize = 8 * 1024 * 1024;
/// The largest reply body [`request`] accepts: the biggest entry the
/// service stores ([`MAX_RESULT_BYTES`]) plus room for the peer-frame
/// header and witness record `/peer/get` wraps around it.
const MAX_REPLY_BODY: usize = MAX_RESULT_BYTES + MAX_HEAD;
/// Bodies up to this size share one buffer (and one write) with their
/// head; larger ones are written after the head rather than copied.
const COALESCE_MAX: usize = 4 * 1024;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Sends one HTTP message. A small body is copied behind the head so
/// the message leaves in one write; a large one follows the head in a
/// second write (TCP_NODELAY keeps the head from waiting for it).
fn write_message(stream: &mut TcpStream, head: &str, body: &[u8]) -> io::Result<()> {
    if body.len() <= COALESCE_MAX {
        let mut out = Vec::with_capacity(head.len() + body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(body);
        stream.write_all(&out)?;
    } else {
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
    }
    stream.flush()
}

/// A parsed request: method, path, body.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Reads an HTTP head of at most `MAX_HEAD` bytes off `stream`.
/// Returns everything read so far and the head's length; the bytes
/// past the head's blank line are the start of the body.
fn read_head(stream: &mut TcpStream) -> io::Result<(Vec<u8>, usize)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = find_head_end(&buf) {
            return Ok((buf, pos));
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

/// The head's `Content-Length`, if it carries one.
fn content_length(head: &str) -> io::Result<Option<usize>> {
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                return value
                    .trim()
                    .parse()
                    .map(Some)
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"));
            }
        }
    }
    Ok(None)
}

/// Reads a body of exactly `len` bytes, of which `body` already holds
/// the start. Memory grows only as bytes arrive, never to a length a
/// peer merely claims.
fn read_body(stream: &mut TcpStream, mut body: Vec<u8>, len: usize) -> io::Result<Vec<u8>> {
    if body.len() < len {
        let missing = (len - body.len()) as u64;
        Read::take(stream, missing).read_to_end(&mut body)?;
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

/// Reads one HTTP/1.1 request off `stream`.
fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let (mut buf, head_end) = read_head(stream)?;
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
    let body = read_body(stream, buf.split_off(head_end + 4), content_length)?;
    Ok(Request { method, path, body })
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

    fn write(self, stream: &mut TcpStream) -> io::Result<()> {
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
            "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.code,
            self.content_type,
            self.body.len()
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

/// A running server: acceptor thread + shared service.
pub struct Server {
    addr: SocketAddr,
    service: Arc<JobService>,
    stop: Arc<AtomicBool>,
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
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("st-serve-acceptor".to_owned())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(mut stream) = stream else { continue };
                        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                        let _ = stream.set_nodelay(true);
                        let response = match read_request(&mut stream) {
                            Ok(req) => handle(&service, &req, &stop),
                            Err(e) => Response::error(400, &e.to_string()),
                        };
                        let _ = response.write(&mut stream);
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                })?
        };
        Ok(Server {
            addr: local,
            service,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the server.
    pub fn service(&self) -> &Arc<JobService> {
        &self.service
    }

    /// Blocks until the acceptor exits (i.e. until a client POSTs
    /// `/shutdown`), then stops the worker pool. The foreground-server
    /// mode of the CLI.
    pub fn join_acceptor(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.stop.store(true, Ordering::Release);
        self.service.shutdown();
    }

    /// Stops accepting, joins the acceptor, and shuts the worker pool
    /// down. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock a blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.service.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One-shot blocking HTTP client used by the CLI, the tests and the
/// smoke script: sends `method path` with `body`, returns
/// `(status code, body bytes)`.
///
/// The reply must carry a `Content-Length` (this server always sends
/// one) of at most `MAX_REPLY_BODY`, and exactly that many body bytes
/// are read, so a peer that keeps sending cannot grow the caller's
/// memory without bound.
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
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    write_message(&mut stream, &head, body)?;
    let (mut raw, head_end) = read_head(&mut stream)?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let code: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let len = content_length(head)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without length"))?;
    if len > MAX_REPLY_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "response exceeds the size cap",
        ));
    }
    let body = read_body(&mut stream, raw.split_off(head_end + 4), len)?;
    Ok((code, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

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
        server.service.store.put(key, result.clone());
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
            read_request(&mut stream).unwrap();
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
