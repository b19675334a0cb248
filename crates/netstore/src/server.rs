//! The `marshal serve` daemon.
//!
//! Serves a workdir's content-addressed pool (`objects/`) and its
//! by-input-fingerprint manifest index (`levels/by-input/`) over the frame
//! protocol. Robustness rules:
//!
//! - thread-per-connection with per-connection read deadlines, so one
//!   stalled client cannot wedge the daemon;
//! - a malformed frame earns the sender an [`Message::ErrorMsg`] and a
//!   closed connection — never a crash;
//! - blobs are hash-verified on the way out ([`BlobStore::get`]), and
//!   manifests are unsealed by [`read_level`] before they are sent, so a
//!   corrupt pool entry or index file is withheld (reported absent) rather
//!   than shipped; the wire carries the bare manifest bytes;
//! - SIGINT triggers a graceful drain: stop accepting, finish in-flight
//!   connections, return a summary.

use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use marshal_depgraph::Fingerprint;
use marshal_image::{read_level, BlobStore};
use marshal_trace::Recorder;

use crate::proto::{
    decode_frame, encode_frame, read_frame, write_frame, Message, NetError, NET_VERSION,
};

/// How often blocked waits (accept loop, idle connections) re-check the
/// shutdown flags. Bounds drain latency.
const POLL: Duration = Duration::from_millis(25);

/// Request handling over a workdir — the daemon's brain, separated from the
/// socket plumbing so [`crate::LoopbackTransport`] and tests can drive it
/// in-process.
#[derive(Debug)]
pub struct ServeRoot {
    blobs: BlobStore,
    by_input: PathBuf,
    /// Run-journal recorder (disabled by default); each answered request
    /// records a `remote.request` instant.
    recorder: Recorder,
}

impl ServeRoot {
    /// A serve root over `workdir` (expects `workdir/objects/` and
    /// `workdir/levels/by-input/`; both may be absent or empty).
    pub fn new(workdir: &Path) -> ServeRoot {
        ServeRoot {
            blobs: BlobStore::new(workdir.join("objects")),
            by_input: workdir.join("levels").join("by-input"),
            recorder: Recorder::disabled(),
        }
    }

    /// Installs a run-journal recorder (set before the serve loop starts).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Where the manifest for a level-input fingerprint lives.
    pub fn manifest_path(&self, input: Fingerprint) -> PathBuf {
        self.by_input.join(format!("{input}.man"))
    }

    /// Answers one decoded request. Unexpected or unanswerable messages get
    /// an [`Message::ErrorMsg`]; nothing panics on hostile input.
    pub fn respond(&self, msg: &Message) -> Message {
        let reply = self.answer(msg);
        if self.recorder.enabled() {
            let outcome = match &reply {
                Message::ErrorMsg { .. } => "refused",
                Message::NotFound => "miss",
                Message::Have { present: false } => "miss",
                _ => "ok",
            };
            self.recorder
                .remote_request(crate::client::message_kind(msg), 1, outcome);
        }
        reply
    }

    fn answer(&self, msg: &Message) -> Message {
        match msg {
            Message::Hello { version } => {
                if *version == NET_VERSION {
                    Message::HelloAck {
                        version: NET_VERSION,
                    }
                } else {
                    Message::ErrorMsg {
                        message: format!(
                            "protocol version mismatch: client {version}, server {NET_VERSION}"
                        ),
                    }
                }
            }
            Message::HaveManifest { input } => Message::Have {
                present: self.manifest_path(*input).is_file(),
            },
            Message::GetManifest { input } => match read_level(&self.manifest_path(*input)) {
                Ok(bytes) => Message::ManifestData { bytes },
                // Unreadable or damaged on our side: honestly absent.
                Err(_) => Message::NotFound,
            },
            Message::GetBlobs { fps } => Message::Blobs {
                entries: fps
                    .iter()
                    .map(|fp| {
                        // get() verifies the hash, so a blob that rotted on
                        // this server is withheld, not shipped.
                        let payload = self.blobs.get(*fp).ok().map(|b| b.as_ref().to_vec());
                        (*fp, payload)
                    })
                    .collect(),
            },
            other => Message::ErrorMsg {
                message: format!("unexpected message: {other:?}"),
            },
        }
    }

    /// Decodes a raw frame and answers it; malformed frames become
    /// [`Message::ErrorMsg`] replies instead of crashes.
    pub fn respond_raw(&self, frame: &[u8]) -> Message {
        match decode_frame(frame) {
            Ok(msg) => self.respond(&msg),
            Err(e) => Message::ErrorMsg {
                message: format!("rejected frame: {e}"),
            },
        }
    }
}

static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

/// Whether a SIGINT has been observed since
/// [`install_sigint_handler`] was called.
pub fn sigint_received() -> bool {
    SIGINT_SEEN.load(Ordering::SeqCst)
}

/// Installs a SIGINT handler that records the signal for
/// [`sigint_received`], letting [`Server::run`] drain gracefully instead of
/// dying mid-connection. Idempotent.
#[cfg(unix)]
pub fn install_sigint_handler() {
    extern "C" fn on_sigint(_sig: i32) {
        SIGINT_SEEN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

/// No-op off unix; the serve loop still drains on [`ServerHandle::shutdown`].
#[cfg(not(unix))]
pub fn install_sigint_handler() {}

#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    bad_frames: AtomicU64,
}

/// What a serve run handled, reported after a graceful drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Well-formed requests answered.
    pub requests: u64,
    /// Malformed frames rejected (connection closed, daemon unharmed).
    pub bad_frames: u64,
}

/// Remote control for a running [`Server`], usable from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
}

impl ServerHandle {
    /// Asks the serve loop to drain and return.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

/// The artifact distribution daemon.
pub struct Server {
    listener: TcpListener,
    root: Arc<ServeRoot>,
    shutdown: Arc<AtomicBool>,
    read_timeout: Duration,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) serving
    /// `workdir`. `read_timeout` is the per-connection deadline for reading
    /// a request once one has started arriving.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the bind fails.
    pub fn bind(addr: &str, workdir: &Path, read_timeout: Duration) -> Result<Server, NetError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| NetError::Io(format!("binding {addr}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::Io(format!("nonblocking accept: {e}")))?;
        Ok(Server {
            listener,
            root: Arc::new(ServeRoot::new(workdir)),
            shutdown: Arc::new(AtomicBool::new(false)),
            read_timeout,
        })
    }

    /// The bound address (resolves the actual port when bound to port 0).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the socket cannot report its address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        self.listener
            .local_addr()
            .map_err(|e| NetError::Io(format!("local addr: {e}")))
    }

    /// Installs a run-journal recorder on the serve root. Must be called
    /// before [`Server::run`]; later calls are ignored.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        if let Some(root) = Arc::get_mut(&mut self.root) {
            root.set_recorder(recorder);
        }
    }

    /// A handle for shutting the server down from another thread.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the socket cannot report its address.
    pub fn handle(&self) -> Result<ServerHandle, NetError> {
        Ok(ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.local_addr()?,
        })
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`] or SIGINT,
    /// then drains: stops accepting, joins every in-flight connection
    /// thread, and reports what was served.
    pub fn run(self) -> ServeSummary {
        let counters = Arc::new(Counters::default());
        let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) || sigint_received() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    let root = Arc::clone(&self.root);
                    let counters = Arc::clone(&counters);
                    let shutdown = Arc::clone(&self.shutdown);
                    let deadline = self.read_timeout;
                    threads.push(std::thread::spawn(move || {
                        serve_connection(stream, &root, &counters, &shutdown, deadline);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                // Transient accept errors (e.g. a connection reset before
                // accept) must not kill the daemon.
                Err(_) => std::thread::sleep(POLL),
            }
            threads.retain(|t| !t.is_finished());
        }
        for t in threads {
            let _ = t.join();
        }
        ServeSummary {
            connections: counters.connections.load(Ordering::Relaxed),
            requests: counters.requests.load(Ordering::Relaxed),
            bad_frames: counters.bad_frames.load(Ordering::Relaxed),
        }
    }
}

/// One connection's lifecycle: handshake, then serve requests until EOF,
/// deadline abuse, a malformed frame, or drain.
fn serve_connection(
    mut stream: TcpStream,
    root: &ServeRoot,
    counters: &Counters,
    shutdown: &AtomicBool,
    deadline: Duration,
) {
    // Idle waits poll so drain stays responsive; once bytes start arriving
    // the full per-request deadline applies.
    let mut peek_buf = [0u8; 1];
    loop {
        if shutdown.load(Ordering::SeqCst) || sigint_received() {
            return;
        }
        if stream.set_read_timeout(Some(POLL)).is_err() {
            return;
        }
        match stream.peek(&mut peek_buf) {
            Ok(0) => return, // clean EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        if stream.set_read_timeout(Some(deadline)).is_err() {
            return;
        }
        let reply = match read_frame(&mut stream) {
            Ok(frame) => {
                let msg = root.respond_raw(&frame);
                if matches!(msg, Message::ErrorMsg { .. }) {
                    counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                } else {
                    counters.requests.fetch_add(1, Ordering::Relaxed);
                }
                msg
            }
            // Unframeable bytes or a reader that blew its deadline: tell
            // them why (best effort) and hang up.
            Err(e) => {
                counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(
                    &mut stream,
                    &encode_frame(&Message::ErrorMsg {
                        message: format!("rejected frame: {e}"),
                    }),
                );
                return;
            }
        };
        let fatal = matches!(reply, Message::ErrorMsg { .. });
        if write_frame(&mut stream, &encode_frame(&reply)).is_err() || fatal {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{TcpTransport, Transport};
    use marshal_qcheck::scratch_dir;

    fn populate(workdir: &Path) -> Fingerprint {
        crate::client::tests::populate(workdir).0
    }

    fn start(workdir: &Path) -> (ServerHandle, std::thread::JoinHandle<ServeSummary>) {
        let server = Server::bind("127.0.0.1:0", workdir, Duration::from_secs(2)).unwrap();
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run());
        (handle, join)
    }

    fn connect(handle: &ServerHandle) -> TcpTransport {
        TcpTransport::connect(&handle.addr().to_string(), Duration::from_secs(2)).unwrap()
    }

    fn ask(t: &mut TcpTransport, msg: &Message) -> Message {
        decode_frame(&t.exchange(&encode_frame(msg)).unwrap()).unwrap()
    }

    #[test]
    fn serves_manifest_and_blobs_over_tcp() {
        let dir = scratch_dir("roundtrip");
        let input = populate(&dir);
        let (handle, join) = start(&dir);
        let mut t = connect(&handle);
        assert_eq!(
            ask(
                &mut t,
                &Message::Hello {
                    version: NET_VERSION
                }
            ),
            Message::HelloAck {
                version: NET_VERSION
            }
        );
        assert_eq!(
            ask(&mut t, &Message::HaveManifest { input }),
            Message::Have { present: true }
        );
        let Message::ManifestData { bytes } = ask(&mut t, &Message::GetManifest { input }) else {
            panic!("expected manifest");
        };
        let fps = marshal_image::manifest_refs(&bytes).unwrap();
        let Message::Blobs { entries } = ask(&mut t, &Message::GetBlobs { fps: fps.clone() })
        else {
            panic!("expected blobs");
        };
        assert_eq!(entries.len(), fps.len());
        for (fp, payload) in entries {
            let payload = payload.expect("all blobs present");
            assert_eq!(Fingerprint::of(&payload), fp);
        }
        // Unknown manifest is honestly absent.
        assert_eq!(
            ask(
                &mut t,
                &Message::GetManifest {
                    input: Fingerprint(0xDEAD)
                }
            ),
            Message::NotFound
        );
        drop(t);
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.connections, 1);
        assert!(summary.requests >= 5);
        assert_eq!(summary.bad_frames, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn version_mismatch_is_refused() {
        let dir = scratch_dir("version");
        let (handle, join) = start(&dir);
        let mut t = connect(&handle);
        let reply = ask(&mut t, &Message::Hello { version: 999 });
        assert!(matches!(reply, Message::ErrorMsg { .. }), "{reply:?}");
        handle.shutdown();
        join.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn malformed_frames_do_not_kill_the_daemon() {
        let dir = scratch_dir("malformed");
        let input = populate(&dir);
        let (handle, join) = start(&dir);
        // A client that speaks garbage gets an error frame back...
        {
            let addr = handle.addr().to_string();
            let mut raw = std::net::TcpStream::connect(&addr).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            use std::io::Write;
            raw.write_all(b"MNET\xff\xff\xff\xff not a frame at all")
                .unwrap();
            let reply = read_frame(&mut raw).unwrap();
            assert!(matches!(
                decode_frame(&reply).unwrap(),
                Message::ErrorMsg { .. }
            ));
        }
        // ...and the daemon still serves the next, well-behaved client.
        let mut t = connect(&handle);
        assert_eq!(
            ask(&mut t, &Message::HaveManifest { input }),
            Message::Have { present: true }
        );
        drop(t);
        handle.shutdown();
        let summary = join.join().unwrap();
        assert!(summary.bad_frames >= 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn damaged_manifest_is_withheld_and_the_wire_carries_it_unsealed() {
        let dir = scratch_dir("sealed-manifest");
        let input = populate(&dir);
        let root = ServeRoot::new(&dir);
        let path = root.manifest_path(input);
        let Message::ManifestData { bytes } = root.respond(&Message::GetManifest { input }) else {
            panic!("expected the manifest");
        };
        assert_eq!(bytes, read_level(&path).unwrap(), "sent without its seal");
        let mut sealed = std::fs::read(&path).unwrap();
        let last = sealed.len() - 1;
        sealed[last] ^= 0x01;
        std::fs::write(&path, &sealed).unwrap();
        let reply = root.respond(&Message::GetManifest { input });
        assert!(matches!(reply, Message::NotFound), "{reply:?}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_pool_blob_is_withheld_not_shipped() {
        let dir = scratch_dir("withheld");
        let input = populate(&dir);
        let root = ServeRoot::new(&dir);
        let manifest = read_level(&root.manifest_path(input)).unwrap();
        let fps = marshal_image::manifest_refs(&manifest).unwrap();
        // Rot one blob on the server.
        let store = BlobStore::new(dir.join("objects"));
        std::fs::write(store.blob_path(fps[0]), b"rotted payload").unwrap();
        let Message::Blobs { entries } = root.respond(&Message::GetBlobs { fps: fps.clone() })
        else {
            panic!("expected blobs");
        };
        assert_eq!(entries[0].1, None, "corrupt blob must be withheld");
        if entries.len() > 1 {
            assert!(entries[1].1.is_some(), "healthy blobs still served");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
