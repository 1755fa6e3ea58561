//! The evented TCP front door: non-blocking sockets, a readiness loop,
//! and SLO-aware admission in front of `sram_serve`'s scheduler.
//!
//! # Architecture
//!
//! ```text
//! clients ──TCP──▶ IO thread ──push──▶ BatchQueue ──pop_batch──▶ worker 0..W
//!                  (accept, frame      (sram_serve   (one tenant,     │
//!                   decode, shed/       scheduler,    whole sampler   │
//!                   degrade, write      one FIFO      passes)         ▼
//!                   buffers, timeouts)  per tenant)  classify_micro_batch(tenant system, seed)
//!                  ▲                                                  │
//!                  ├───────────── results channel (mpsc) ◀────────────┤
//!                  └───────────── wake socket (1 byte per batch) ◀────┘
//! ```
//!
//! One IO thread owns every socket: it accepts, reads into
//! per-connection [`FrameDecoder`]s, makes the admission decision, drains
//! worker results into per-connection write buffers, and enforces the
//! timeouts. Workers never touch a client socket. They run on
//! `sram_serve`'s scheduler, the one the closed-batch `InferenceServer`
//! uses: the IO thread pushes each admitted job onto its tenant's FIFO in
//! the shared [`BatchQueue`], and each worker pops one tenant's
//! micro-batch, from the tenant whose head job was admitted first, sized
//! to whole four-request sampler passes once that tenant's backlog holds
//! one. The worker classifies the batch with one [`classify_micro_batch`]
//! call on that tenant's system and seed stream: one bank fetch per layer
//! on any store, and on a read-faulty one the requests' fault streams are
//! sampled four at a time. It sends each request's result back over an
//! `mpsc` channel, then writes one byte to a wake socket per batch.
//!
//! When a pass over the sockets moves nothing, the IO thread blocks in
//! `poll(2)` (Linux) on the wake socket, the listener, every connection
//! it still reads, and every connection with bytes left to write. It
//! wakes as soon as a client sends, a socket drains, or a worker
//! finishes, and at least once per housekeeping period to check the
//! slow-loris, stuck-writer and stop deadlines. No registry and no epoll:
//! the poll set is rebuilt from the connection slab on each wait. Other
//! targets sleep a short fixed tick instead.
//!
//! # Admission
//!
//! Three bounds, all checked before a classify request is queued:
//!
//! 1. **Per-connection in-flight** and **global in-flight** hard caps —
//!    beyond either, the request is *shed* with an explicit
//!    [`Status::Overloaded`] response (never silently dropped).
//! 2. A **soft watermark** below the global cap — beyond it the request
//!    still queues, but its tenant is degraded to its drowsy retention
//!    tier (standby-leakage scale [`TenantSpec::drowsy_scale`]); tenants
//!    recover when the backlog halves.
//!
//! Degrading changes the *energy accounting state*, never the fault
//! stream: predictions stay a pure function of `(tenant, request_id)`, so
//! overload timing cannot leak into the determinism contract.
//!
//! [`TenantSpec::drowsy_scale`]: crate::registry::TenantSpec::drowsy_scale
//! [`Status::Overloaded`]: crate::proto::Status::Overloaded

use crate::proto::{
    decode_request, encode_response, response_mix, ClassifyReply, FrameDecoder, Request,
    RequestBody, Response, Status,
};
use crate::registry::ModelRegistry;
use fault_inject::model::WORD_BITS;
use sram_serve::{classify_micro_batch, BatchQueue, LatencyHistogram};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
use std::os::fd::AsRawFd;
#[cfg(target_os = "linux")]
use std::os::unix::net::UnixStream;

/// Serving-tier knobs.
#[derive(Debug, Clone)]
pub struct NetServerOptions {
    /// Address to bind; `127.0.0.1:0` picks a free port.
    pub bind_addr: String,
    /// Worker threads; 0 = the exec pool default. [`sram_exec::resolve_workers`]
    /// resolves and clamps the count.
    pub workers: usize,
    /// Global in-flight hard cap: beyond it classify requests are shed
    /// with [`Status::Overloaded`].
    pub global_inflight: usize,
    /// Soft watermark (≤ the hard cap): beyond it the request's tenant is
    /// degraded to its drowsy retention tier before queueing.
    pub soft_inflight: usize,
    /// Per-connection in-flight hard cap.
    pub per_conn_inflight: usize,
    /// A connection sitting on a *partial* frame longer than this is
    /// dropped — the slow-loris bound. Idle connections (no partial
    /// frame) are left open.
    pub read_idle_timeout: Duration,
    /// Per-connection write-buffer cap; a reader slower than this is
    /// dropped rather than allowed to balloon server memory.
    pub max_write_buffer: usize,
    /// Connection count cap; excess accepts are closed immediately.
    pub max_conns: usize,
}

impl Default for NetServerOptions {
    fn default() -> Self {
        Self {
            bind_addr: "127.0.0.1:0".to_string(),
            workers: 0,
            global_inflight: 256,
            soft_inflight: 192,
            per_conn_inflight: 128,
            read_idle_timeout: Duration::from_secs(5),
            max_write_buffer: 1 << 20,
            max_conns: 1024,
        }
    }
}

/// Longest idle wait: how often the slow-loris, stuck-writer and stop
/// deadlines are checked when no socket or worker wakes the IO thread.
#[cfg(target_os = "linux")]
const HOUSEKEEPING: Duration = Duration::from_millis(10);

/// Idle sleep where no readiness wait is available; bounds idle CPU burn
/// at the cost of ~a tenth of a millisecond of added latency.
#[cfg(not(target_os = "linux"))]
const IDLE_TICK: Duration = Duration::from_micros(100);

/// How long `stop()` waits for in-flight work and write buffers to drain
/// before tearing the loop down anyway.
const STOP_DEADLINE: Duration = Duration::from_secs(10);

/// Per-tenant serving metrics.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// Tenant display name.
    pub name: String,
    /// Classify requests served.
    pub served: u64,
    /// Micro-batches the served requests ran in (each holds one tenant's
    /// jobs).
    pub batches: u64,
    /// Classify requests shed with `Overloaded`.
    pub shed: u64,
    /// Served requests admitted while the tenant was degraded to its
    /// drowsy tier.
    pub drowsy_served: u64,
    /// Healthy → drowsy transitions.
    pub degrade_events: u64,
    /// Admission → worker-pop wait distribution.
    pub queue: LatencyHistogram,
    /// Worker-pop → completion service distribution.
    pub service: LatencyHistogram,
    /// Read-fault bits injected into this tenant's requests.
    pub fault_bits: u64,
    /// Memory words read by this tenant's requests.
    pub words_read: u64,
    /// Modeled dynamic energy, joules (served × per-inference).
    pub energy_j: f64,
    /// Standby-leakage scale currently in effect (1.0 healthy,
    /// `drowsy_scale` while degraded).
    pub standby_scale: f64,
    /// Order-invariant digest over `(request_id, prediction, fault_bits)`
    /// of every served request.
    pub digest: u64,
}

impl TenantReport {
    /// Served requests per micro-batch; 0 before any is served.
    pub fn mean_batch(&self) -> f64 {
        per_batch(self.served, self.batches)
    }

    /// Injected fault bits per bit read.
    pub fn observed_bit_error_rate(&self) -> f64 {
        let bits = self.words_read.saturating_mul(WORD_BITS as u64);
        if bits == 0 {
            return 0.0;
        }
        self.fault_bits as f64 / bits as f64
    }
}

/// Everything one server run produced.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Per-tenant metrics, registry order.
    pub tenants: Vec<TenantReport>,
    /// Connections accepted.
    pub conns_accepted: u64,
    /// Connections dropped by the server (timeouts, protocol violations,
    /// write-buffer overflow) — *not* counting clean client closes.
    pub conns_dropped: u64,
    /// Frames that failed to decode into a request.
    pub bad_frames: u64,
    /// Pings answered.
    pub pings: u64,
    /// Wall time the server ran.
    pub wall: Duration,
}

impl NetReport {
    /// Classify requests served, all tenants.
    pub fn served(&self) -> u64 {
        self.tenants.iter().map(|t| t.served).sum()
    }

    /// Served requests per micro-batch, all tenants; 0 before any is
    /// served.
    pub fn mean_batch(&self) -> f64 {
        per_batch(self.served(), self.tenants.iter().map(|t| t.batches).sum())
    }

    /// Classify requests shed, all tenants.
    pub fn shed(&self) -> u64 {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    /// Order-invariant digest over every served request, all tenants.
    pub fn digest(&self) -> u64 {
        self.tenants
            .iter()
            .fold(0u64, |acc, t| acc.wrapping_add(t.digest))
    }
}

/// `served / batches`, or 0 when no batch ran.
fn per_batch(served: u64, batches: u64) -> f64 {
    if batches == 0 {
        return 0.0;
    }
    served as f64 / batches as f64
}

/// A running server; dropping it without [`stop`](Self::stop) detaches
/// the serving thread (it keeps serving until process exit).
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    handle: Option<JoinHandle<NetReport>>,
}

impl RunningServer {
    /// The bound address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the IO loop to finish in-flight work, tears it down, and
    /// returns the final report.
    ///
    /// # Panics
    ///
    /// Propagates a server-thread panic.
    pub fn stop(mut self) -> NetReport {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.handle
            .take()
            .expect("server already stopped")
            .join()
            .expect("server thread panicked")
    }
}

/// Binds the listener and spawns the IO thread + worker pool.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or the error
/// creating the IO thread's wake socket or the IO thread itself.
pub fn spawn(
    registry: Arc<ModelRegistry>,
    options: NetServerOptions,
) -> std::io::Result<RunningServer> {
    let listener = TcpListener::bind(&options.bind_addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let (waker, idle) = wake_pair()?;
    let io_waker = waker.clone();
    let handle = std::thread::Builder::new()
        .name("sram-net-io".to_string())
        .spawn(move || run_server(listener, idle, &io_waker, &registry, &options, &stop_flag))?;
    Ok(RunningServer {
        addr,
        stop,
        waker,
        handle: Some(handle),
    })
}

/// One admitted classify job.
struct Job {
    slot: usize,
    gen: u64,
    tenant: usize,
    request_id: u64,
    features: Vec<f32>,
    admitted: Instant,
    drowsy: bool,
}

impl Job {
    /// The job's request id and features, as the batch datapath reads them.
    fn request(&self) -> (u64, &[f32]) {
        (self.request_id, &self.features)
    }
}

/// A finished classify job, routed back to its connection.
struct Done {
    slot: usize,
    gen: u64,
    tenant: usize,
    request_id: u64,
    prediction: u16,
    fault_bits: u64,
    words_read: u64,
    queue_ns: u64,
    service_ns: u64,
    drowsy: bool,
    /// First job of its micro-batch: the batch is counted once.
    batch_head: bool,
}

/// One connection's state, owned by the IO thread.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Pending outbound bytes (responses are appended, flushed as the
    /// socket accepts them).
    out: Vec<u8>,
    /// How much of `out` is already written.
    out_pos: usize,
    inflight: usize,
    gen: u64,
    last_progress: Instant,
    /// Flush-then-close (set after a protocol violation).
    closing: bool,
    /// Peer closed its write side; reap once our buffer drains and no
    /// jobs are in flight.
    peer_closed: bool,
}

impl Conn {
    fn queue_response(&mut self, resp: &Response) {
        // Drop the already-flushed prefix occasionally so the buffer does
        // not grow without bound on long-lived connections.
        if self.out_pos > 0 && self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(&encode_response(resp));
    }

    /// Queues a response that carries no classify reply.
    fn reply(&mut self, status: Status, request_id: u64) {
        self.queue_response(&Response {
            status,
            request_id,
            reply: None,
        });
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// Write end of the IO thread's wake socket, shared by the workers and
/// [`RunningServer::stop`].
#[derive(Debug, Clone)]
struct Waker {
    #[cfg(target_os = "linux")]
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Makes the IO thread's current or next idle wait return. There is
    /// no "parked" flag to race: the byte stays in the socket until the IO
    /// thread drains it after its wait.
    fn wake(&self) {
        // `WouldBlock` means a byte is already pending, which guarantees
        // the wake; any other error leaves the housekeeping period as the
        // bound.
        #[cfg(target_os = "linux")]
        let _ = (&*self.tx).write(&[1]);
    }
}

/// The IO thread's idle wait: the wake socket's read end and a reused
/// `pollfd` set.
struct IdleWait {
    #[cfg(target_os = "linux")]
    rx: UnixStream,
    #[cfg(target_os = "linux")]
    fds: Vec<sys::PollFd>,
}

#[cfg(target_os = "linux")]
fn wake_pair() -> std::io::Result<(Waker, IdleWait)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Waker { tx: Arc::new(tx) },
        IdleWait {
            rx,
            fds: Vec::new(),
        },
    ))
}

#[cfg(not(target_os = "linux"))]
fn wake_pair() -> std::io::Result<(Waker, IdleWait)> {
    Ok((Waker {}, IdleWait {}))
}

impl IdleWait {
    /// Blocks until a worker or [`RunningServer::stop`] wakes the loop,
    /// the listener (if given) has a connection, a live connection has
    /// bytes to read, a pending write buffer can drain, or the
    /// housekeeping period passes.
    #[cfg(target_os = "linux")]
    fn wait(&mut self, listener: Option<&TcpListener>, conns: &[Option<Conn>]) {
        self.fds.clear();
        self.fds
            .push(sys::PollFd::new(self.rx.as_raw_fd(), sys::POLLIN));
        if let Some(listener) = listener {
            self.fds
                .push(sys::PollFd::new(listener.as_raw_fd(), sys::POLLIN));
        }
        for conn in conns.iter().flatten() {
            // A peer-closed socket reads EOF forever; polling it would
            // return at once and spin while its jobs are still in flight.
            let mut events = 0;
            if !conn.closing && !conn.peer_closed {
                events |= sys::POLLIN;
            }
            if conn.pending_out() > 0 {
                events |= sys::POLLOUT;
            }
            if events != 0 {
                self.fds
                    .push(sys::PollFd::new(conn.stream.as_raw_fd(), events));
            }
        }
        sys::poll_fds(&mut self.fds, HOUSEKEEPING);
        let mut sink = [0u8; 64];
        while matches!(self.rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    #[cfg(not(target_os = "linux"))]
    fn wait(&mut self, _listener: Option<&TcpListener>, _conns: &[Option<Conn>]) {
        std::thread::sleep(IDLE_TICK);
    }
}

/// `poll(2)`, declared by hand: std already links libc, so no crate is
/// needed for one call.
#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::time::Duration;

    pub(super) const POLLIN: c_short = 0x001;
    pub(super) const POLLOUT: c_short = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    impl PollFd {
        pub(super) fn new(fd: c_int, events: c_short) -> Self {
            Self {
                fd,
                events,
                revents: 0,
            }
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Waits until one of `fds` is ready or `timeout` passes. The result
    /// is not needed: on readiness, timeout, or error (`EINTR`) alike the
    /// caller scans every socket again and re-checks its deadlines.
    pub(super) fn poll_fds(fds: &mut [PollFd], timeout: Duration) {
        let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd` values, and `nfds` is its length, so the kernel
        // reads and writes (`revents`) only inside it. Nothing is retained
        // past the call.
        unsafe {
            poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms);
        }
    }
}

/// Per-tenant mutable serving state (IO-thread local).
struct TenantState {
    report: TenantReport,
    drowsy: bool,
    input_width: usize,
}

fn run_server(
    listener: TcpListener,
    mut idle: IdleWait,
    waker: &Waker,
    registry: &ModelRegistry,
    options: &NetServerOptions,
    stop: &AtomicBool,
) -> NetReport {
    let started = Instant::now();
    let workers = sram_exec::resolve_workers(options.workers);
    let queue = BatchQueue::new(workers, sram_serve::DEFAULT_MAX_BATCH);
    let (done_tx, done_rx) = mpsc::channel::<Done>();

    let mut tenants: Vec<TenantState> = (0..registry.len())
        .map(|t| TenantState {
            report: TenantReport {
                name: registry.spec(t).name.clone(),
                ..TenantReport::default()
            },
            drowsy: false,
            input_width: registry.input_width(t),
        })
        .collect();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut conns_accepted = 0u64;
    let mut conns_dropped = 0u64;
    let mut bad_frames = 0u64;
    let mut pings = 0u64;
    let mut inflight = 0usize;
    let mut stop_seen: Option<Instant> = None;

    std::thread::scope(|scope| {
        for w in 0..workers {
            std::thread::Builder::new()
                .name(format!("sram-net-worker-{w}"))
                .spawn_scoped(scope, || worker_loop(registry, &queue, &done_tx, waker))
                .expect("spawn worker");
        }

        let mut read_buf = [0u8; 8192];
        loop {
            let mut progressed = false;
            // A hard accept error (e.g. out of descriptors) leaves the
            // listener readable: skip it in this wait rather than spin.
            let mut accept_failed = false;

            // 1. Accept.
            if stop_seen.is_none() {
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            progressed = true;
                            let live = conns.iter().filter(|c| c.is_some()).count();
                            if live >= options.max_conns || stream.set_nonblocking(true).is_err() {
                                conns_dropped += 1;
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            conns_accepted += 1;
                            let conn = Conn {
                                stream,
                                decoder: FrameDecoder::new(),
                                out: Vec::new(),
                                out_pos: 0,
                                inflight: 0,
                                gen: conns_accepted,
                                last_progress: Instant::now(),
                                closing: false,
                                peer_closed: false,
                            };
                            match conns.iter_mut().position(|c| c.is_none()) {
                                Some(slot) => conns[slot] = Some(conn),
                                None => conns.push(Some(conn)),
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => {
                            accept_failed = true;
                            break;
                        }
                    }
                }
            }

            // 2. Read + decode + admit.
            for (slot, entry) in conns.iter_mut().enumerate() {
                let Some(conn) = entry.as_mut() else {
                    continue;
                };
                if conn.closing {
                    continue;
                }
                let mut budget = 8; // reads per conn per tick; keeps one firehose from starving the rest
                while budget > 0 {
                    budget -= 1;
                    match conn.stream.read(&mut read_buf) {
                        Ok(0) => {
                            conn.peer_closed = true;
                            break;
                        }
                        Ok(n) => {
                            progressed = true;
                            conn.last_progress = Instant::now();
                            conn.decoder.extend(&read_buf[..n]);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => {
                            conn.peer_closed = true;
                            break;
                        }
                    }
                }
                // Pop every complete frame.
                loop {
                    match conn.decoder.next_frame() {
                        Err(oversized) => {
                            bad_frames += 1;
                            conn.reply(Status::FrameTooLarge, oversized.declared as u64);
                            conn.closing = true;
                            break;
                        }
                        Ok(None) => break,
                        Ok(Some(payload)) => {
                            progressed = true;
                            match decode_request(&payload) {
                                Err(_) => {
                                    bad_frames += 1;
                                    conn.reply(Status::BadRequest, 0);
                                }
                                Ok(req) => handle_request(
                                    req,
                                    slot,
                                    conn,
                                    &mut tenants,
                                    &mut inflight,
                                    &mut pings,
                                    options,
                                    &queue,
                                ),
                            }
                        }
                    }
                }
            }

            // 3. Drain worker results into write buffers.
            while let Ok(done) = done_rx.try_recv() {
                progressed = true;
                inflight -= 1;
                let state = &mut tenants[done.tenant];
                state.report.served += 1;
                state.report.queue.record(done.queue_ns);
                state.report.service.record(done.service_ns);
                state.report.fault_bits += done.fault_bits;
                state.report.words_read += done.words_read;
                state.report.energy_j += registry.spec(done.tenant).energy_per_inference_j;
                state.report.batches += u64::from(done.batch_head);
                if done.drowsy {
                    state.report.drowsy_served += 1;
                }
                state.report.digest = state.report.digest.wrapping_add(response_mix(
                    done.tenant as u16,
                    done.request_id,
                    done.prediction,
                    done.fault_bits as u32,
                ));
                // Backlog halved: recover every tenant to the healthy tier.
                if inflight * 2 < options.soft_inflight {
                    for t in tenants.iter_mut() {
                        t.drowsy = false;
                    }
                }
                if let Some(conn) = conns[done.slot].as_mut() {
                    if conn.gen == done.gen {
                        conn.inflight -= 1;
                        conn.queue_response(&Response {
                            status: Status::Ok,
                            request_id: done.request_id,
                            reply: Some(ClassifyReply {
                                prediction: done.prediction,
                                fault_bits: done.fault_bits as u32,
                                queue_ns: done.queue_ns,
                                service_ns: done.service_ns,
                            }),
                        });
                    }
                }
            }

            // 4. Flush write buffers; enforce timeouts; reap connections.
            let now = Instant::now();
            for entry in conns.iter_mut() {
                let Some(conn) = entry.as_mut() else {
                    continue;
                };
                while conn.pending_out() > 0 {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(n) if n > 0 => {
                            progressed = true;
                            conn.out_pos += n;
                            conn.last_progress = now;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        // Dead peer (or zero-length write): nothing left
                        // to flush to — discard the buffer so the
                        // connection can be reaped.
                        _ => {
                            conn.out_pos = conn.out.len();
                            conn.peer_closed = true;
                            break;
                        }
                    }
                }
                let slow_loris = conn.decoder.has_partial()
                    && now.duration_since(conn.last_progress) > options.read_idle_timeout;
                let stuck_writer = conn.pending_out() > options.max_write_buffer
                    || (conn.pending_out() > 0
                        && now.duration_since(conn.last_progress) > options.read_idle_timeout);
                let flushed_close = (conn.closing || conn.peer_closed)
                    && conn.pending_out() == 0
                    && conn.inflight == 0;
                if slow_loris || stuck_writer || conn.closing && conn.peer_closed {
                    conns_dropped += 1;
                    *entry = None;
                } else if flushed_close {
                    if conn.closing {
                        conns_dropped += 1;
                    }
                    *entry = None;
                }
            }

            // 5. Stop handling.
            if stop.load(Ordering::SeqCst) && stop_seen.is_none() {
                stop_seen = Some(Instant::now());
            }
            if let Some(at) = stop_seen {
                let drained = inflight == 0 && conns.iter().flatten().all(|c| c.pending_out() == 0);
                if drained || at.elapsed() > STOP_DEADLINE {
                    break;
                }
            }

            if !progressed {
                let accepting = stop_seen.is_none() && !accept_failed;
                idle.wait(accepting.then_some(&listener), &conns);
            }
        }

        // Tear the workers down.
        queue.close();
        // Scoped threads join here; drain any results that raced the stop.
        while done_rx.try_recv().is_ok() {}
    });

    for (t, state) in tenants.iter_mut().enumerate() {
        state.report.standby_scale = if state.drowsy {
            registry.spec(t).drowsy_scale
        } else {
            1.0
        };
    }
    NetReport {
        tenants: tenants.into_iter().map(|t| t.report).collect(),
        conns_accepted,
        conns_dropped,
        bad_frames,
        pings,
        wall: started.elapsed(),
    }
}

/// Admission: validate, shed, degrade, or queue one decoded request.
#[allow(clippy::too_many_arguments)]
fn handle_request(
    req: Request,
    slot: usize,
    conn: &mut Conn,
    tenants: &mut [TenantState],
    inflight: &mut usize,
    pings: &mut u64,
    options: &NetServerOptions,
    queue: &BatchQueue<Job>,
) {
    let features = match req.body {
        RequestBody::Ping => {
            *pings += 1;
            conn.reply(Status::Ok, req.request_id);
            return;
        }
        RequestBody::Classify(features) => features,
    };
    let tenant = req.tenant as usize;
    if tenant >= tenants.len() {
        conn.reply(Status::UnknownTenant, req.request_id);
        return;
    }
    let state = &mut tenants[tenant];
    if features.len() != state.input_width {
        conn.reply(Status::BadRequest, req.request_id);
        return;
    }
    if *inflight >= options.global_inflight || conn.inflight >= options.per_conn_inflight {
        state.report.shed += 1;
        conn.reply(Status::Overloaded, req.request_id);
        return;
    }
    // Soft overload: degrade this tenant to its drowsy retention tier,
    // then queue anyway. Energy accounting changes; the fault stream does
    // not (determinism contract).
    if *inflight >= options.soft_inflight && !state.drowsy {
        state.drowsy = true;
        state.report.degrade_events += 1;
    }
    *inflight += 1;
    conn.inflight += 1;
    queue.push(
        tenant,
        [Job {
            slot,
            gen: conn.gen,
            tenant,
            request_id: req.request_id,
            features,
            admitted: Instant::now(),
            drowsy: state.drowsy,
        }],
    );
}

/// Pops one-tenant micro-batches and classifies each on its tenant's
/// system, sending every job's result and then waking the IO thread once
/// per batch. One scratch context set serves every tenant: each request
/// re-arms it.
fn worker_loop(
    registry: &ModelRegistry,
    queue: &BatchQueue<Job>,
    done_tx: &mpsc::Sender<Done>,
    waker: &Waker,
) {
    let mut ctxs = Vec::new();
    let mut batch = Vec::new();
    while queue.pop_batch(&mut batch) {
        let (system, seed) = registry.tenant(batch[0].tenant);
        let mut batch_head = true;
        classify_micro_batch(
            system,
            seed,
            &batch,
            Job::request,
            &mut ctxs,
            |job, done| {
                // The receiver outlives the worker scope: sends cannot fail.
                let _ = done_tx.send(Done {
                    slot: job.slot,
                    gen: job.gen,
                    tenant: job.tenant,
                    request_id: job.request_id,
                    prediction: done.prediction as u16,
                    fault_bits: done.fault_bits,
                    words_read: done.words_read,
                    queue_ns: done.started.duration_since(job.admitted).as_nanos() as u64,
                    service_ns: (done.finished - done.started).as_nanos() as u64,
                    drowsy: job.drowsy,
                    batch_head: std::mem::take(&mut batch_head),
                });
            },
        );
        waker.wake();
    }
}
