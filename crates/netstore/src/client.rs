//! The fetch-before-build client.
//!
//! Given a remote daemon, a builder asks for each level's manifest by input
//! fingerprint and fetches only the blobs its local pool is missing; a hit
//! replaces the entire local level build. The failure philosophy is that a
//! remote can *accelerate* a build but never break one:
//!
//! - transport failures get bounded retries with exponential backoff and
//!   deterministic jitter;
//! - a circuit breaker trips after [`RetryPolicy::breaker_threshold`]
//!   consecutive failed attempts and degrades the whole build to local-only
//!   — a dead daemon costs one request's worth of timeouts, not one per
//!   level;
//! - every received blob is hash-verified; a mismatch is quarantined and
//!   re-fetched exactly once, and corrupt bytes never enter `objects/`;
//! - any unrecoverable fetch problem falls back to building locally and is
//!   reported as a structured note, never as a build failure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use marshal_depgraph::Fingerprint;
use marshal_image::{manifest_refs, Blob, BlobStore};
use marshal_qcheck::Rng;
use marshal_trace::Recorder;

use crate::proto::{decode_frame, encode_frame, Message, NetError, MAX_BLOB_BATCH, NET_VERSION};
use crate::transport::{TcpTransport, Transport};

/// Produces a fresh connection; called lazily and again after any
/// connection is torn down by a failure.
pub type TransportFactory = Box<dyn Fn() -> Result<Box<dyn Transport>, NetError> + Send + Sync>;

/// Retry, deadline, and circuit-breaker tuning for a [`RemoteStore`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per request (first try included).
    pub attempts: u32,
    /// Backoff before retry `n` is `base_delay * 2^(n-1)` plus jitter,
    /// capped at `max_delay`.
    pub base_delay: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_delay: Duration,
    /// Per-request deadline (connect, read, and write).
    pub request_timeout: Duration,
    /// Consecutive failed attempts before the breaker opens and the build
    /// degrades to local-only.
    pub breaker_threshold: u32,
    /// Seed for deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            request_timeout: Duration::from_secs(5),
            breaker_threshold: 3,
            jitter_seed: 0x6d61_7273_6861_6c21,
        }
    }
}

impl RetryPolicy {
    /// A policy with millisecond-scale delays, for tests and benches that
    /// exercise retry paths without real waiting.
    pub fn fast() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            request_timeout: Duration::from_secs(2),
            breaker_threshold: 3,
            jitter_seed: 7,
        }
    }
}

/// What remote fetching did for a build — surfaced in build products and
/// the CLI summary line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteFetchSummary {
    /// Level manifests fetched from the remote.
    pub manifests_fetched: u64,
    /// Level manifests the remote did not have.
    pub manifests_missing: u64,
    /// Levels fully satisfied by the remote (manifest plus all blobs).
    pub levels_fetched: u64,
    /// Levels built locally (remote miss, degraded, or no remote data).
    pub levels_built_locally: u64,
    /// Blobs received and installed into the local pool.
    pub blobs_fetched: u64,
    /// Payload bytes received for those blobs.
    pub bytes_fetched: u64,
    /// Received blobs that failed hash verification and were quarantined.
    pub blobs_quarantined: u64,
    /// Request attempts that were retries of a failed attempt.
    pub retries: u64,
    /// Whether the circuit breaker tripped and the build degraded to
    /// local-only.
    pub degraded: bool,
}

impl RemoteFetchSummary {
    /// One human-readable line for build output.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "remote: {} level(s) fetched ({} blobs, {} bytes), {} built locally",
            self.levels_fetched, self.blobs_fetched, self.bytes_fetched, self.levels_built_locally
        );
        if self.blobs_quarantined > 0 {
            s.push_str(&format!(
                ", {} corrupt blob(s) quarantined",
                self.blobs_quarantined
            ));
        }
        if self.degraded {
            s.push_str(" [degraded to local-only]");
        }
        s
    }
}

/// The stable journal label for a request message's kind.
pub(crate) fn message_kind(msg: &Message) -> &'static str {
    match msg {
        Message::Hello { .. } => "hello",
        Message::HaveManifest { .. } => "have-manifest",
        Message::GetManifest { .. } => "get-manifest",
        Message::GetBlobs { .. } => "get-blobs",
        _ => "other",
    }
}

struct ClientState {
    conn: Option<Box<dyn Transport>>,
    consecutive_failures: u32,
    open: bool,
    rng: Rng,
}

#[derive(Default)]
struct ClientStats {
    manifests_fetched: AtomicU64,
    manifests_missing: AtomicU64,
    levels_fetched: AtomicU64,
    levels_built_locally: AtomicU64,
    blobs_fetched: AtomicU64,
    bytes_fetched: AtomicU64,
    blobs_quarantined: AtomicU64,
    retries: AtomicU64,
    degraded: AtomicBool,
}

/// A resilient client for one remote artifact daemon. Shared across build
/// tasks; requests are serialized internally.
pub struct RemoteStore {
    factory: TransportFactory,
    policy: RetryPolicy,
    state: Mutex<ClientState>,
    stats: ClientStats,
    notes: Mutex<Vec<String>>,
    label: String,
    /// Run-journal recorder (disabled by default); a mutex because the
    /// client is shared behind an `Arc` and the recorder is installed after
    /// construction. The hot path takes it once per request.
    recorder: Mutex<Recorder>,
}

impl std::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore")
            .field("label", &self.label)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl RemoteStore {
    /// A client over a custom transport factory (loopback, fault-injected,
    /// or anything else implementing [`Transport`]).
    pub fn with_factory(
        label: impl Into<String>,
        factory: TransportFactory,
        policy: RetryPolicy,
    ) -> RemoteStore {
        RemoteStore {
            factory,
            state: Mutex::new(ClientState {
                conn: None,
                consecutive_failures: 0,
                open: false,
                rng: Rng::new(policy.jitter_seed),
            }),
            policy,
            stats: ClientStats::default(),
            notes: Mutex::new(Vec::new()),
            label: label.into(),
            recorder: Mutex::new(Recorder::disabled()),
        }
    }

    /// Installs a run-journal recorder: every request records a `remote`
    /// span, and retries and breaker trips record instants.
    pub fn set_recorder(&self, recorder: Recorder) {
        *self.recorder.lock().expect("recorder lock") = recorder;
    }

    fn recorder(&self) -> Recorder {
        self.recorder.lock().expect("recorder lock").clone()
    }

    /// A client that connects over TCP to `addr` (`HOST:PORT`).
    pub fn tcp(addr: &str, policy: RetryPolicy) -> RemoteStore {
        let addr_owned = addr.to_owned();
        let timeout = policy.request_timeout;
        let factory: TransportFactory = Box::new(move || {
            Ok(Box::new(TcpTransport::connect(&addr_owned, timeout)?) as Box<dyn Transport>)
        });
        RemoteStore::with_factory(addr, factory, policy)
    }

    /// The remote's label (its address, for TCP clients).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether the circuit breaker has tripped (build degraded to
    /// local-only).
    pub fn degraded(&self) -> bool {
        self.stats.degraded.load(Ordering::Relaxed)
    }

    /// Drains accumulated human-readable notes (breaker trips, quarantines,
    /// fallbacks) for conversion into structured warnings.
    pub fn take_notes(&self) -> Vec<String> {
        std::mem::take(&mut *self.notes.lock().expect("notes lock"))
    }

    /// Records that a level was built locally instead of fetched.
    pub fn note_local_build(&self) {
        self.stats
            .levels_built_locally
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the fetch statistics.
    pub fn summary(&self) -> RemoteFetchSummary {
        RemoteFetchSummary {
            manifests_fetched: self.stats.manifests_fetched.load(Ordering::Relaxed),
            manifests_missing: self.stats.manifests_missing.load(Ordering::Relaxed),
            levels_fetched: self.stats.levels_fetched.load(Ordering::Relaxed),
            levels_built_locally: self.stats.levels_built_locally.load(Ordering::Relaxed),
            blobs_fetched: self.stats.blobs_fetched.load(Ordering::Relaxed),
            bytes_fetched: self.stats.bytes_fetched.load(Ordering::Relaxed),
            blobs_quarantined: self.stats.blobs_quarantined.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            degraded: self.stats.degraded.load(Ordering::Relaxed),
        }
    }

    /// Appends a human-readable note for the end-of-build warning drain.
    fn note(&self, line: String) {
        self.notes.lock().expect("notes lock").push(line);
    }

    fn backoff_delay(&self, attempt: u32, rng: &mut Rng) -> Duration {
        let base = self.policy.base_delay;
        let exp = base.saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.policy.max_delay);
        let jitter_cap = (base.as_millis() as u64 / 2).max(1);
        capped + Duration::from_millis(rng.below(jitter_cap + 1))
    }

    /// Connects and performs the version handshake.
    fn open_connection(&self) -> Result<Box<dyn Transport>, NetError> {
        let mut t = (self.factory)()?;
        let reply = t.exchange(&encode_frame(&Message::Hello {
            version: NET_VERSION,
        }))?;
        match decode_frame(&reply)? {
            Message::HelloAck { version } if version == NET_VERSION => Ok(t),
            Message::ErrorMsg { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Protocol(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    fn attempt_once(&self, st: &mut ClientState, frame: &[u8]) -> Result<Message, NetError> {
        if st.conn.is_none() {
            st.conn = Some(self.open_connection()?);
        }
        let conn = st.conn.as_mut().expect("connection just ensured");
        let reply = conn.exchange(frame)?;
        decode_frame(&reply)
    }

    fn record_failure(&self, st: &mut ClientState) -> bool {
        st.conn = None;
        st.consecutive_failures += 1;
        if st.consecutive_failures >= self.policy.breaker_threshold && !st.open {
            st.open = true;
            self.stats.degraded.store(true, Ordering::Relaxed);
            self.recorder()
                .breaker_trip(u64::from(st.consecutive_failures));
            self.note(format!(
                "remote {}: circuit breaker opened after {} consecutive failures; \
                 degrading this build to local-only",
                self.label, st.consecutive_failures
            ));
            return true;
        }
        false
    }

    /// Sends one request with retry/backoff and breaker accounting.
    ///
    /// # Errors
    ///
    /// [`NetError::CircuitOpen`] when the breaker is (or becomes) open;
    /// otherwise the last attempt's error.
    pub fn request(&self, msg: &Message) -> Result<Message, NetError> {
        let frame = encode_frame(msg);
        let mut st = self.state.lock().expect("client state lock");
        if st.open {
            // The degraded fast-path stays free: no span, no sends.
            return Err(NetError::CircuitOpen);
        }
        let rec = self.recorder();
        let kind = message_kind(msg);
        let span = rec.span("remote", &[("kind", kind)]);
        let mut attempts_used = 1u64;
        let result = self.request_attempts(&mut st, &frame, kind, &rec, &mut attempts_used);
        let outcome = match &result {
            Ok(_) => "ok",
            Err(NetError::CircuitOpen) => "breaker-open",
            Err(NetError::Remote(_)) => "refused",
            Err(_) => "error",
        };
        span.end_with(&[
            ("outcome", outcome),
            ("attempts", &attempts_used.to_string()),
        ]);
        result
    }

    /// The retry loop of [`RemoteStore::request`], under the state lock.
    fn request_attempts(
        &self,
        st: &mut ClientState,
        frame: &[u8],
        kind: &str,
        rec: &Recorder,
        attempts_used: &mut u64,
    ) -> Result<Message, NetError> {
        let attempts = self.policy.attempts.max(1);
        let mut last = NetError::Io("no attempts made".to_owned());
        for attempt in 0..attempts {
            if attempt > 0 {
                let delay = self.backoff_delay(attempt, &mut st.rng);
                std::thread::sleep(delay);
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                rec.remote_retry(kind, u64::from(attempt));
                *attempts_used = u64::from(attempt) + 1;
            }
            match self.attempt_once(st, frame) {
                Ok(Message::ErrorMsg { message }) => {
                    // The server answered but refused us; retrying the same
                    // request will not change its mind.
                    st.conn = None;
                    if self.record_failure(st) {
                        return Err(NetError::CircuitOpen);
                    }
                    return Err(NetError::Remote(message));
                }
                Ok(reply) => {
                    st.consecutive_failures = 0;
                    return Ok(reply);
                }
                Err(e) if e.retryable() => {
                    if self.record_failure(st) {
                        return Err(NetError::CircuitOpen);
                    }
                    last = e;
                }
                Err(e) => {
                    if self.record_failure(st) {
                        return Err(NetError::CircuitOpen);
                    }
                    return Err(e);
                }
            }
        }
        Err(last)
    }

    /// Fetches one blob payload, returning `None` when the remote does not
    /// have (or withholds) it.
    fn fetch_one_blob(&self, fp: Fingerprint) -> Result<Option<Vec<u8>>, NetError> {
        match self.request(&Message::GetBlobs { fps: vec![fp] })? {
            Message::Blobs { mut entries } if entries.len() == 1 => Ok(entries.remove(0).1),
            other => Err(NetError::Protocol(format!(
                "expected a 1-entry Blobs reply, got {other:?}"
            ))),
        }
    }

    /// Verifies received bytes against `fp`; on mismatch quarantines them
    /// and re-fetches exactly once.
    fn verify_or_refetch(
        &self,
        store: &BlobStore,
        fp: Fingerprint,
        bytes: Vec<u8>,
    ) -> Result<Option<Vec<u8>>, NetError> {
        if Fingerprint::of(&bytes) == fp {
            return Ok(Some(bytes));
        }
        self.stats.blobs_quarantined.fetch_add(1, Ordering::Relaxed);
        let where_to = store
            .quarantine_received(fp, &bytes)
            .map(|p| p.display().to_string())
            .unwrap_or_else(|e| format!("<quarantine failed: {e}>"));
        self.note(format!(
            "remote {}: blob {fp} failed hash verification; quarantined to {where_to}, \
             re-fetching once",
            self.label
        ));
        let Some(again) = self.fetch_one_blob(fp)? else {
            return Ok(None);
        };
        if Fingerprint::of(&again) == fp {
            return Ok(Some(again));
        }
        let _ = store.quarantine_received(fp, &again);
        self.stats.blobs_quarantined.fetch_add(1, Ordering::Relaxed);
        Err(NetError::Remote(format!(
            "remote {} served blob {fp} corrupt twice; refusing it",
            self.label
        )))
    }

    /// Fetches a level by input fingerprint: the manifest, then only the
    /// blobs missing from the local pool. On success every referenced blob
    /// is verified and installed and the manifest bytes are returned.
    /// `Ok(None)` means the remote cannot fully supply this level (absent
    /// manifest or blob) and the caller should build locally.
    ///
    /// # Errors
    ///
    /// [`NetError::CircuitOpen`] once degraded; transport errors that
    /// survived retries; [`NetError::Remote`] for a twice-corrupt blob.
    /// Callers treat every error as "build locally" — fetching never fails
    /// a build.
    pub fn fetch_level(
        &self,
        store: &BlobStore,
        input: Fingerprint,
    ) -> Result<Option<Vec<u8>>, NetError> {
        let manifest = match self.request(&Message::GetManifest { input })? {
            Message::ManifestData { bytes } => bytes,
            Message::NotFound => {
                self.stats.manifests_missing.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "expected ManifestData/NotFound, got {other:?}"
                )))
            }
        };
        self.stats.manifests_fetched.fetch_add(1, Ordering::Relaxed);
        let refs = manifest_refs(&manifest).map_err(|e| {
            NetError::Protocol(format!(
                "remote {} sent a malformed manifest: {e}",
                self.label
            ))
        })?;
        let missing: Vec<Fingerprint> = refs.into_iter().filter(|fp| !store.has(*fp)).collect();
        for chunk in missing.chunks(MAX_BLOB_BATCH) {
            let entries = match self.request(&Message::GetBlobs {
                fps: chunk.to_vec(),
            })? {
                Message::Blobs { entries } if entries.len() == chunk.len() => entries,
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected a {}-entry Blobs reply, got {other:?}",
                        chunk.len()
                    )))
                }
            };
            for (want, (got, payload)) in chunk.iter().zip(entries) {
                if got != *want {
                    return Err(NetError::Protocol(format!(
                        "asked for blob {want}, reply describes {got}"
                    )));
                }
                if !self.install(store, *want, payload)? {
                    self.note(format!(
                        "remote {} is missing blob {want} for level {input}; building locally",
                        self.label
                    ));
                    return Ok(None);
                }
            }
        }
        self.stats.levels_fetched.fetch_add(1, Ordering::Relaxed);
        Ok(Some(manifest))
    }

    /// Fetches a single blob by fingerprint, verifying and installing it
    /// into `store`. Returns `Ok(false)` when the remote does not have it.
    /// This is the self-heal path: a load that finds a corrupt or missing
    /// pool blob asks the remote for a fresh copy.
    ///
    /// # Errors
    ///
    /// Same policy as [`RemoteStore::fetch_level`].
    pub fn fetch_blob(&self, store: &BlobStore, fp: Fingerprint) -> Result<bool, NetError> {
        let payload = self.fetch_one_blob(fp)?;
        self.install(store, fp, payload)
    }

    /// Verifies a received payload (re-fetching once on a mismatch) and
    /// installs it into `store`. `Ok(false)`: the remote does not have it.
    fn install(
        &self,
        store: &BlobStore,
        fp: Fingerprint,
        payload: Option<Vec<u8>>,
    ) -> Result<bool, NetError> {
        let Some(bytes) = payload else {
            return Ok(false);
        };
        let Some(verified) = self.verify_or_refetch(store, fp, bytes)? else {
            return Ok(false);
        };
        let len = verified.len() as u64;
        store
            .put(&Blob::with_fingerprint(verified, fp))
            .map_err(|e| NetError::Io(format!("installing fetched blob: {e}")))?;
        self.stats.blobs_fetched.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_fetched.fetch_add(len, Ordering::Relaxed);
        Ok(true)
    }

    /// [`RemoteStore::fetch_level`] with the error policy applied: any
    /// failure becomes a note plus `None` (build locally). The degraded
    /// fast-path is silent — the breaker trip was already noted once.
    pub fn try_fetch_level(&self, store: &BlobStore, input: Fingerprint) -> Option<Vec<u8>> {
        match self.fetch_level(store, input) {
            Ok(found) => found,
            Err(NetError::CircuitOpen) => None,
            Err(e) => {
                self.note(format!(
                    "remote {}: fetch of level {input} failed ({e}); building locally",
                    self.label
                ));
                None
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::server::ServeRoot;
    use crate::transport::{FaultPlan, FaultTransport, LoopbackTransport, NetFaultKind};
    use marshal_image::FsImage;
    use marshal_qcheck::scratch_dir;
    use std::path::Path;
    use std::sync::Arc;

    /// Populates a workdir-shaped directory with one sealed level manifest
    /// and its blobs; returns the input fingerprint it is indexed under.
    pub(crate) fn populate(workdir: &Path) -> (Fingerprint, FsImage) {
        let store = BlobStore::new(workdir.join("objects"));
        let mut img = FsImage::new();
        img.write_file("/etc/hostname", b"remote-node").unwrap();
        img.write_file("/etc/motd", b"hello from the daemon")
            .unwrap();
        img.write_exec("/bin/run", b"\x13\x05\x10\x00").unwrap();
        let (manifest, _) = store.write_manifest(&img).unwrap();
        let input = Fingerprint::of(b"the-level-input");
        let root = ServeRoot::new(workdir);
        marshal_depgraph::persist::write_sealed(&root.manifest_path(input), &manifest).unwrap();
        (input, img)
    }

    fn loopback_client(server_dir: &Path, policy: RetryPolicy) -> RemoteStore {
        let root = Arc::new(ServeRoot::new(server_dir));
        RemoteStore::with_factory(
            "loopback",
            Box::new(move || Ok(Box::new(LoopbackTransport::new(Arc::clone(&root))) as _)),
            policy,
        )
    }

    fn faulty_client(server_dir: &Path, plan: FaultPlan, policy: RetryPolicy) -> RemoteStore {
        let root = Arc::new(ServeRoot::new(server_dir));
        RemoteStore::with_factory(
            "loopback+faults",
            Box::new(move || {
                Ok(Box::new(FaultTransport::new(
                    LoopbackTransport::new(Arc::clone(&root)),
                    plan.clone(),
                )) as _)
            }),
            policy,
        )
    }

    #[test]
    fn fetch_level_installs_only_missing_blobs() {
        let server = scratch_dir("fetch-server");
        let local = scratch_dir("fetch-local");
        let (input, img) = populate(&server);
        let client = loopback_client(&server, RetryPolicy::fast());
        let store = BlobStore::new(local.join("objects"));

        let manifest = client.fetch_level(&store, input).unwrap().expect("hit");
        assert_eq!(store.read_manifest(&manifest).unwrap(), img);
        let first = client.summary();
        assert_eq!(first.levels_fetched, 1);
        assert!(first.blobs_fetched >= 3);

        // A second fetch of the same level moves zero blobs.
        let again = client.fetch_level(&store, input).unwrap().expect("hit");
        assert_eq!(again, manifest);
        assert_eq!(client.summary().blobs_fetched, first.blobs_fetched);

        // An unknown level is a miss, not an error.
        let miss = client
            .fetch_level(&store, Fingerprint::of(b"unknown"))
            .unwrap();
        assert!(miss.is_none());
        assert_eq!(client.summary().manifests_missing, 1);
        std::fs::remove_dir_all(server).unwrap();
        std::fs::remove_dir_all(local).unwrap();
    }

    #[test]
    fn transient_fault_is_retried_to_success() {
        for kind in [
            NetFaultKind::Drop,
            NetFaultKind::Stall,
            NetFaultKind::CorruptFrame,
            NetFaultKind::Truncate,
            NetFaultKind::SlowStart,
        ] {
            let server = scratch_dir(&format!("retry-server-{kind:?}"));
            let local = scratch_dir(&format!("retry-local-{kind:?}"));
            let (input, _) = populate(&server);
            // One injected fault, then healthy.
            let plan = FaultPlan::new(kind, 1, 1, 3);
            let client = faulty_client(&server, plan.clone(), RetryPolicy::fast());
            let store = BlobStore::new(local.join("objects"));
            let fetched = client.fetch_level(&store, input).unwrap();
            assert!(fetched.is_some(), "{kind:?} should heal via retry");
            assert_eq!(plan.injected(), 1, "{kind:?}");
            assert!(client.summary().retries >= 1, "{kind:?}");
            assert!(!client.degraded(), "{kind:?}");
            std::fs::remove_dir_all(server).unwrap();
            std::fs::remove_dir_all(local).unwrap();
        }
    }

    #[test]
    fn dead_remote_trips_breaker_once_then_fast_fails() {
        let server = scratch_dir("breaker-server");
        let local = scratch_dir("breaker-local");
        let (input, _) = populate(&server);
        let plan = FaultPlan::always(NetFaultKind::Stall, 5);
        let client = faulty_client(&server, plan.clone(), RetryPolicy::fast());
        let store = BlobStore::new(local.join("objects"));

        assert_eq!(
            client.fetch_level(&store, input).unwrap_err(),
            NetError::CircuitOpen
        );
        let spent = plan.exchanges();
        // Further requests are free: the breaker fast-fails without
        // touching the transport at all.
        for _ in 0..10 {
            assert!(client.try_fetch_level(&store, input).is_none());
        }
        assert_eq!(plan.exchanges(), spent, "degraded requests must be free");
        assert!(client.degraded());
        let notes = client.take_notes();
        assert!(
            notes.iter().any(|n| n.contains("circuit breaker")),
            "{notes:?}"
        );
        std::fs::remove_dir_all(server).unwrap();
        std::fs::remove_dir_all(local).unwrap();
    }

    /// A transport whose server lies: frames are well-formed (valid
    /// checksum) but blob payloads have been tampered with.
    struct LyingTransport {
        inner: LoopbackTransport,
        lies_left: Arc<AtomicU64>,
    }

    impl Transport for LyingTransport {
        fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
            let reply = self.inner.exchange(frame)?;
            let msg = decode_frame(&reply).expect("loopback frames are valid");
            if let Message::Blobs { mut entries } = msg {
                if self.lies_left.load(Ordering::Relaxed) > 0 {
                    if let Some((_, Some(bytes))) = entries.first_mut() {
                        if let Some(b) = bytes.first_mut() {
                            *b ^= 0xFF;
                            self.lies_left.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
                return Ok(encode_frame(&Message::Blobs { entries }));
            }
            Ok(reply)
        }
    }

    fn lying_client(server_dir: &Path, lies: u64) -> RemoteStore {
        let root = Arc::new(ServeRoot::new(server_dir));
        let lies_left = Arc::new(AtomicU64::new(lies));
        RemoteStore::with_factory(
            "liar",
            Box::new(move || {
                Ok(Box::new(LyingTransport {
                    inner: LoopbackTransport::new(Arc::clone(&root)),
                    lies_left: Arc::clone(&lies_left),
                }) as _)
            }),
            RetryPolicy::fast(),
        )
    }

    #[test]
    fn corrupt_received_blob_is_quarantined_and_refetched_once() {
        let server = scratch_dir("liar-server");
        let local = scratch_dir("liar-local");
        let (input, img) = populate(&server);
        let client = lying_client(&server, 1);
        let store = BlobStore::new(local.join("objects"));

        let manifest = client.fetch_level(&store, input).unwrap().expect("hit");
        assert_eq!(store.read_manifest(&manifest).unwrap(), img);
        let s = client.summary();
        assert_eq!(s.blobs_quarantined, 1);
        // The corrupt bytes were preserved in quarantine, not the pool.
        assert!(store.quarantine_dir().is_dir());
        let quarantined: Vec<_> = std::fs::read_dir(store.quarantine_dir()).unwrap().collect();
        assert_eq!(quarantined.len(), 1);
        // Every pool blob verifies.
        for fp in manifest_refs(&manifest).unwrap() {
            store.get(fp).expect("pool blob must verify");
        }
        assert!(client
            .take_notes()
            .iter()
            .any(|n| n.contains("quarantined")));
        std::fs::remove_dir_all(server).unwrap();
        std::fs::remove_dir_all(local).unwrap();
    }

    #[test]
    fn twice_corrupt_blob_is_refused_never_installed() {
        let server = scratch_dir("liar2-server");
        let local = scratch_dir("liar2-local");
        let (input, _) = populate(&server);
        let client = lying_client(&server, u64::MAX);
        let store = BlobStore::new(local.join("objects"));

        let err = client.fetch_level(&store, input).unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
        assert_eq!(client.summary().blobs_quarantined, 2);
        // try_fetch_level applies the policy: note + local fallback.
        assert!(client.try_fetch_level(&store, input).is_none());
        // Nothing corrupt reached the pool: every installed blob verifies.
        let objects = local.join("objects");
        for shard in std::fs::read_dir(&objects).unwrap() {
            let shard = shard.unwrap();
            if shard.file_name().to_string_lossy().starts_with('.') {
                continue;
            }
            for blob in std::fs::read_dir(shard.path()).unwrap() {
                let name = blob.unwrap().file_name();
                let stem = name.to_string_lossy().replace(".blob", "");
                let fp: Fingerprint = stem.parse().unwrap();
                store.get(fp).expect("installed blob must verify");
            }
        }
        std::fs::remove_dir_all(server).unwrap();
        std::fs::remove_dir_all(local).unwrap();
    }

    #[test]
    fn backoff_grows_and_stays_bounded() {
        let client = loopback_client(&scratch_dir("backoff"), RetryPolicy::default());
        let mut rng = Rng::new(1);
        let d1 = client.backoff_delay(1, &mut rng);
        let d4 = client.backoff_delay(4, &mut rng);
        assert!(d1 >= Duration::from_millis(50));
        assert!(d4 <= RetryPolicy::default().max_delay + Duration::from_millis(26));
        // Deterministic: same seed, same jitter.
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        assert_eq!(
            client.backoff_delay(2, &mut a),
            client.backoff_delay(2, &mut b)
        );
    }
}
