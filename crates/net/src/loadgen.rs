//! The open-loop load generator: deterministic Poisson-ish arrivals over
//! real sockets.
//!
//! Closed-loop benchmarks (send, wait, send) hide queueing: the generator
//! slows down exactly when the server does, so the latency they report is
//! service time, not what an arrival stream would experience. This
//! generator is **open-loop**: request `i`'s send time is scheduled up
//! front from a seeded exponential-gap stream, and the client never waits
//! for a response before sending the next request. Sojourn time is
//! measured from the *scheduled arrival*, so backlog shows up in the
//! histogram instead of silently stretching the run.
//!
//! # Determinism
//!
//! The arrival schedule, the tenant assignment (`i % tenants`), the
//! feature choice, and the request ids are all pure functions of the
//! options — two runs with the same seed send byte-identical request
//! streams, regardless of connection count. Combined with the registry's
//! per-request fault seeding, the response digest is reproducible
//! whenever the served set is (i.e. at zero shed).

use crate::proto::{
    decode_response, encode_request, response_mix, FrameDecoder, Request, RequestBody, Status,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sram_serve::LatencyHistogram;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One tenant's request material.
#[derive(Debug, Clone)]
pub struct TenantStream {
    /// Tenant index on the server.
    pub tenant: u16,
    /// Feature vectors to cycle through (request `k` of this tenant uses
    /// `features[k % features.len()]`).
    pub features: Vec<Vec<f32>>,
}

/// Load-run knobs.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Mean arrival rate, requests/second; `0.0` means *burst* (every
    /// request scheduled at t=0 — the overload probe).
    pub rate: f64,
    /// Total requests to send.
    pub requests: usize,
    /// Client connections; request `i` rides connection `i % connections`.
    pub connections: usize,
    /// Seed of the exponential inter-arrival stream.
    pub seed: u64,
    /// Give up (counting outstanding requests as errors) this long after
    /// the last scheduled arrival.
    pub drain_timeout: Duration,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            rate: 500.0,
            requests: 256,
            connections: 2,
            seed: 0x000E_11AD_5EED,
            drain_timeout: Duration::from_secs(30),
        }
    }
}

/// What an open-loop run observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests actually written to a socket.
    pub sent: u64,
    /// `Ok` classify responses.
    pub ok: u64,
    /// `Overloaded` responses (admission shed).
    pub shed: u64,
    /// Everything else: error statuses, dead connections, responses never
    /// received before the drain timeout.
    pub errors: u64,
    /// Whether the drain timeout fired.
    pub timed_out: bool,
    /// Scheduled-arrival → response sojourn distribution (client-side;
    /// includes queueing the open-loop schedule exposes).
    pub sojourn: LatencyHistogram,
    /// Server-reported admission → worker-pop waits.
    pub queue: LatencyHistogram,
    /// Server-reported service times.
    pub service: LatencyHistogram,
    /// Per-reply sojourn minus that reply's queue and service time
    /// (saturating): what neither stage accounts for — socket and wake
    /// hops, framing, and generator lateness.
    pub residual: LatencyHistogram,
    /// Order-invariant digest over `(tenant, id, prediction, fault_bits)`
    /// of every `Ok` response; matches the server's digest when every
    /// request was served.
    pub digest: u64,
    /// Sum of server-reported per-request fault bits.
    pub fault_bits: u64,
    /// First send → last response.
    pub wall: Duration,
}

impl LoadReport {
    /// Served requests per second of wall time.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.ok as f64 / secs
    }
}

/// The precomputed, seed-deterministic arrival offsets (nanoseconds from
/// run start). Exposed so tests can pin the schedule itself.
pub fn arrival_schedule_ns(rate: f64, requests: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    (0..requests)
        .map(|_| {
            if rate > 0.0 {
                // Exponential gap: -ln(1-U)/rate, U ∈ [0,1).
                let u: f64 = rng.gen();
                at += -(1.0 - u).ln() / rate;
            }
            (at * 1e9) as u64
        })
        .collect()
}

/// Longest client sleep when a pass over the sockets moved nothing.
const CLIENT_TICK: Duration = Duration::from_micros(50);

struct ClientConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    dead: bool,
}

/// Runs one open-loop load pass against a serving address.
///
/// # Errors
///
/// Returns the connect error if any connection cannot be established;
/// mid-run socket failures are folded into [`LoadReport::errors`]
/// instead, so an overloaded server cannot wedge the client.
///
/// # Panics
///
/// Panics on zero streams, zero connections, or zero requests.
pub fn run(
    addr: SocketAddr,
    streams: &[TenantStream],
    options: &LoadOptions,
) -> std::io::Result<LoadReport> {
    assert!(!streams.is_empty(), "need at least one tenant stream");
    assert!(options.connections > 0, "need at least one connection");
    assert!(options.requests > 0, "need at least one request");
    let n = options.requests;
    let arrivals = arrival_schedule_ns(options.rate, n, options.seed);
    let mut conns: Vec<ClientConn> = Vec::with_capacity(options.connections);
    for _ in 0..options.connections {
        let stream = TcpStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        conns.push(ClientConn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            dead: false,
        });
    }

    let mut report = LoadReport {
        sent: 0,
        ok: 0,
        shed: 0,
        errors: 0,
        timed_out: false,
        sojourn: LatencyHistogram::new(),
        queue: LatencyHistogram::new(),
        service: LatencyHistogram::new(),
        residual: LatencyHistogram::new(),
        digest: 0,
        fault_bits: 0,
        wall: Duration::ZERO,
    };
    let start = Instant::now();
    let deadline_ns =
        arrivals.last().copied().unwrap_or(0) + options.drain_timeout.as_nanos() as u64;
    let mut next = 0usize;
    let mut outstanding = 0u64;
    let mut read_buf = [0u8; 8192];

    loop {
        let now_ns = start.elapsed().as_nanos() as u64;
        let mut progressed = false;

        // Send every request whose scheduled arrival has passed — without
        // waiting for any response (open loop).
        while next < n && arrivals[next] <= now_ns {
            progressed = true;
            let conn = &mut conns[next % options.connections];
            if conn.dead {
                report.errors += 1;
            } else {
                let s = &streams[next % streams.len()];
                let k = next / streams.len();
                let frame = encode_request(&Request {
                    tenant: s.tenant,
                    request_id: next as u64,
                    body: RequestBody::Classify(s.features[k % s.features.len()].clone()),
                });
                if conn.out_pos > 0 && conn.out_pos == conn.out.len() {
                    conn.out.clear();
                    conn.out_pos = 0;
                }
                conn.out.extend_from_slice(&frame);
                report.sent += 1;
                outstanding += 1;
            }
            next += 1;
        }

        for conn in conns.iter_mut() {
            if conn.dead {
                continue;
            }
            // Flush pending writes.
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(w) if w > 0 => {
                        progressed = true;
                        conn.out_pos += w;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    _ => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            // Read responses.
            loop {
                match conn.stream.read(&mut read_buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(r) => {
                        progressed = true;
                        conn.decoder.extend(&read_buf[..r]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            loop {
                match conn.decoder.next_frame() {
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(None) => break,
                    Ok(Some(payload)) => {
                        progressed = true;
                        outstanding = outstanding.saturating_sub(1);
                        let Ok(resp) = decode_response(&payload) else {
                            report.errors += 1;
                            continue;
                        };
                        let id = resp.request_id as usize;
                        match (resp.status, resp.reply) {
                            (Status::Ok, Some(reply)) if id < n => {
                                report.ok += 1;
                                let done_ns = start.elapsed().as_nanos() as u64;
                                let sojourn_ns = done_ns.saturating_sub(arrivals[id]);
                                report.sojourn.record(sojourn_ns);
                                report.queue.record(reply.queue_ns);
                                report.service.record(reply.service_ns);
                                report.residual.record(
                                    sojourn_ns
                                        .saturating_sub(reply.queue_ns)
                                        .saturating_sub(reply.service_ns),
                                );
                                report.fault_bits += u64::from(reply.fault_bits);
                                let tenant = streams[id % streams.len()].tenant;
                                report.digest = report.digest.wrapping_add(response_mix(
                                    tenant,
                                    resp.request_id,
                                    reply.prediction,
                                    reply.fault_bits,
                                ));
                            }
                            (Status::Overloaded, _) => report.shed += 1,
                            _ => report.errors += 1,
                        }
                    }
                }
            }
        }

        // Dead connections can never deliver their outstanding responses.
        if conns.iter().all(|c| c.dead) && next >= n {
            report.errors += outstanding;
            outstanding = 0;
        }
        if next >= n && outstanding == 0 {
            break;
        }
        if now_ns > deadline_ns {
            report.timed_out = true;
            report.errors += outstanding;
            break;
        }
        if !progressed {
            // Never nap past the next scheduled arrival: a late send would
            // be charged to the server as sojourn.
            let mut nap = CLIENT_TICK;
            if let Some(&due) = arrivals.get(next) {
                nap = nap.min(Duration::from_nanos(due.saturating_sub(now_ns)));
            }
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    }
    report.wall = start.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_rate_scaled() {
        let a = arrival_schedule_ns(1000.0, 64, 7);
        let b = arrival_schedule_ns(1000.0, 64, 7);
        assert_eq!(a, b);
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be sorted"
        );
        let c = arrival_schedule_ns(1000.0, 64, 8);
        assert_ne!(a, c, "different seeds, different schedules");
        // Mean gap ≈ 1/rate: 64 arrivals at 1 kHz span ~64 ms (loose 3x bound).
        let span = *a.last().unwrap();
        assert!(span > 20_000_000 && span < 200_000_000, "span {span} ns");
    }

    #[test]
    fn burst_schedule_is_all_zero() {
        assert!(arrival_schedule_ns(0.0, 16, 3).iter().all(|&t| t == 0));
    }
}
