//! `net_open_loop`: the TCP serving tier over loopback, driven by a
//! single-threaded client.
//!
//! Phase A is open loop: request `i` is due at a seeded Poisson arrival
//! time and is sent then, whatever is still outstanding; its sojourn runs
//! from that *scheduled* time, and every request keeps its raw stamps.
//! Phase B is closed loop: each connection keeps a fixed window of
//! requests in flight, which measures throughput without ever reaching
//! the admission watermarks; it keeps counts only, so client memory does
//! not grow with the server's speed.

use crate::fixture::TenantData;
use crate::stats::WINDOWS;
use sram_net::loadgen::arrival_schedule_ns;
use sram_net::proto::{
    decode_response, encode_request, response_mix, FrameDecoder, Request, RequestBody, Status,
};
use sram_net::registry::ModelRegistry;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client connections.
pub const CONNECTIONS: usize = 2;
/// Phase A arrival rate, requests/second: about a quarter of the
/// closed-loop throughput, so a slow phase of the shared machine does not
/// push the open loop to the knee of its latency curve.
pub const OPEN_RATE: f64 = 2000.0;
/// Phase B requests in flight per connection.
pub const WINDOW: usize = 32;
/// Every `VERIFY_STRIDE`-th request id is replayed against the reference.
/// The client/server digest covers every reply; the replay checks that
/// what the server computed is what the sequential path computes.
pub const VERIFY_STRIDE: u64 = 4;
/// Give up on outstanding responses this long after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest client sleep when a poll tick moved nothing.
const CLIENT_TICK: Duration = Duration::from_micros(50);

/// The id → request mapping: tenant by parity, feature by a seeded hash
/// of the id. Pure in `(seed, id)`, so client, server and the reference
/// replay agree on every request whatever order it was sent in.
pub fn request_of(seed: u64, id: u64, tenants: &[TenantData]) -> (u16, usize) {
    let tenant = (id % tenants.len() as u64) as usize;
    let pick = sram_exec::derive_seed(seed, id) % tenants[tenant].features.len() as u64;
    (tenant as u16, pick as usize)
}

/// Phase A's arrival offsets for a workload seed.
pub fn open_schedule(seed: u64, requests: usize) -> Vec<u64> {
    arrival_schedule_ns(OPEN_RATE, requests, sram_exec::derive_seed(seed, 0xA441))
}

/// One open-loop request as the client saw it, ns from phase start.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamp {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// The server's own stamps, carried in the reply.
    pub queue_ns: u64,
    pub service_ns: u64,
    pub ok: bool,
}

/// A served reply kept for the reference replay.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    pub id: u64,
    pub prediction: u16,
    pub fault_bits: u32,
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct PhaseReport {
    /// Open loop: one stamp per scheduled request. Closed loop: empty.
    pub stamps: Vec<Stamp>,
    pub sent: u64,
    pub ok: u64,
    /// Closed loop: replies received while the window was held open.
    pub ok_in_window: u64,
    /// Closed loop: the same replies per `WINDOWS` equal slices of the
    /// window.
    pub ok_per_slice: Vec<u64>,
    /// Served predictions equal to the dataset label.
    pub correct: u64,
    /// Order-invariant digest of every served reply, as the server
    /// computes it.
    pub digest: u64,
    pub checks: Vec<Check>,
    pub shed: u64,
    pub errors: u64,
    pub timed_out: bool,
    pub wall: Duration,
}

/// How a phase paces its sends.
pub enum Pacing<'a> {
    /// Send request `k` at `schedule[k]` ns.
    Open(&'a [u64]),
    /// Keep `WINDOW` in flight per connection for this long.
    Closed(Duration),
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    inflight: usize,
    dead: bool,
}

/// Runs one phase; ids start at `first_id`.
pub fn run_phase(
    addr: SocketAddr,
    seed: u64,
    tenants: &[TenantData],
    first_id: u64,
    pacing: Pacing<'_>,
) -> std::io::Result<PhaseReport> {
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let stream = TcpStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        conns.push(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: 0,
            dead: false,
        });
    }
    // Every distinct request body encoded once; a send copies its frame
    // and stamps the id into the header (bytes 8..16: after the length
    // prefix, version, opcode and tenant).
    let frames: Vec<Vec<Vec<u8>>> = tenants
        .iter()
        .enumerate()
        .map(|(t, data)| {
            data.features
                .iter()
                .map(|f| {
                    encode_request(&Request {
                        tenant: t as u16,
                        request_id: 0,
                        body: RequestBody::Classify(f.clone()),
                    })
                })
                .collect()
        })
        .collect();
    let (schedule, window_ns) = match pacing {
        Pacing::Open(schedule) => (schedule, 0),
        Pacing::Closed(duration) => (&[][..], duration.as_nanos() as u64),
    };
    let mut report = PhaseReport {
        stamps: Vec::with_capacity(schedule.len()),
        ok_per_slice: vec![0; if window_ns > 0 { WINDOWS } else { 0 }],
        ..PhaseReport::default()
    };
    let mut outstanding = 0usize;
    let mut read_buf = [0u8; 16 * 1024];
    let start = Instant::now();
    let mut last_send_ns = 0u64;

    loop {
        let now_ns = start.elapsed().as_nanos() as u64;
        let mut progressed = false;
        let send = |conn: &mut Conn, report: &mut PhaseReport| {
            let id = first_id + report.sent;
            let (tenant, pick) = request_of(seed, id, tenants);
            if conn.out_pos == conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
            }
            let at = conn.out.len();
            conn.out.extend_from_slice(&frames[tenant as usize][pick]);
            conn.out[at + 8..at + 16].copy_from_slice(&id.to_le_bytes());
            conn.inflight += 1;
            report.sent += 1;
        };
        let sending = if window_ns == 0 {
            while report.stamps.len() < schedule.len() && schedule[report.stamps.len()] <= now_ns {
                let k = report.stamps.len();
                let conn = &mut conns[k % CONNECTIONS];
                let mut stamp = Stamp {
                    due_ns: schedule[k],
                    ..Stamp::default()
                };
                if conn.dead {
                    report.errors += 1;
                    report.sent += 1;
                } else {
                    send(conn, &mut report);
                    stamp.sent_ns = start.elapsed().as_nanos() as u64;
                    outstanding += 1;
                    progressed = true;
                }
                report.stamps.push(stamp);
            }
            report.stamps.len() < schedule.len()
        } else {
            let open = now_ns < window_ns;
            if open {
                for conn in conns.iter_mut().filter(|c| !c.dead) {
                    while conn.inflight < WINDOW {
                        send(conn, &mut report);
                        outstanding += 1;
                        progressed = true;
                    }
                }
            }
            open
        };
        if sending {
            last_send_ns = now_ns;
        }

        for conn in conns.iter_mut().filter(|c| !c.dead) {
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(n) if n > 0 => {
                        conn.out_pos += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    _ => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            loop {
                match conn.stream.read(&mut read_buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.extend(&read_buf[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            let done_ns = start.elapsed().as_nanos() as u64;
            loop {
                let payload = match conn.decoder.next_frame() {
                    Ok(Some(p)) => p,
                    Ok(None) => break,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                };
                outstanding = outstanding.saturating_sub(1);
                conn.inflight = conn.inflight.saturating_sub(1);
                let Ok(resp) = decode_response(&payload) else {
                    report.errors += 1;
                    continue;
                };
                let id = resp.request_id;
                let k = id.wrapping_sub(first_id);
                match (resp.status, resp.reply) {
                    (Status::Ok, Some(reply)) if k < report.sent => {
                        let (tenant, pick) = request_of(seed, id, tenants);
                        report.ok += 1;
                        report.digest = report.digest.wrapping_add(response_mix(
                            tenant,
                            id,
                            reply.prediction,
                            reply.fault_bits,
                        ));
                        if tenants[tenant as usize].labels[pick] == usize::from(reply.prediction) {
                            report.correct += 1;
                        }
                        if id % VERIFY_STRIDE == 0 {
                            report.checks.push(Check {
                                id,
                                prediction: reply.prediction,
                                fault_bits: reply.fault_bits,
                            });
                        }
                        if let Some(s) = report.stamps.get_mut(k as usize) {
                            s.done_ns = done_ns;
                            s.queue_ns = reply.queue_ns;
                            s.service_ns = reply.service_ns;
                            s.ok = true;
                        } else if done_ns < window_ns {
                            report.ok_in_window += 1;
                            report.ok_per_slice[(done_ns * WINDOWS as u64 / window_ns) as usize] +=
                                1;
                        }
                    }
                    (Status::Overloaded, _) => report.shed += 1,
                    _ => report.errors += 1,
                }
            }
        }

        if !sending && outstanding == 0 {
            break;
        }
        if conns.iter().all(|c| c.dead)
            || (!sending && now_ns > last_send_ns + DRAIN_TIMEOUT.as_nanos() as u64)
        {
            report.timed_out = outstanding > 0;
            report.errors += outstanding as u64;
            break;
        }
        if !progressed {
            let mut nap = CLIENT_TICK;
            if let Some(&due) = schedule.get(report.stamps.len()) {
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

/// Replays the kept replies through `ModelRegistry::classify` on the exec
/// pool; returns how many disagree with what the wire delivered
/// (prediction or fault bits).
pub fn reference_mismatches(
    registry: &ModelRegistry,
    seed: u64,
    tenants: &[TenantData],
    checks: &[Check],
) -> usize {
    let bad = sram_exec::par_map_indexed(checks.len(), |i| {
        let c = checks[i];
        let (tenant, pick) = request_of(seed, c.id, tenants);
        let t = tenant as usize;
        let mut ctx = registry.make_context(t);
        let (prediction, fault_bits) =
            registry.classify(t, &tenants[t].features[pick], c.id, &mut ctx);
        prediction != usize::from(c.prediction) || fault_bits != u64::from(c.fault_bits)
    });
    bad.iter().filter(|&&b| b).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_tenants() -> Vec<TenantData> {
        (0..2)
            .map(|t| TenantData {
                features: (0..10 + t).map(|i| vec![i as f32]).collect(),
                labels: (0..10 + t).collect(),
            })
            .collect()
    }

    #[test]
    fn arrival_schedule_is_deterministic_per_seed_and_differs_across_seeds() {
        let a = open_schedule(7, 512);
        assert_eq!(a, open_schedule(7, 512));
        assert_ne!(a, open_schedule(8, 512));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are sorted");
        // 512 arrivals at 2000/s span about 256 ms.
        let span_ms = *a.last().unwrap() as f64 / 1e6;
        assert!((180.0..340.0).contains(&span_ms), "span {span_ms} ms");
    }

    #[test]
    fn request_mapping_is_pure_in_seed_and_id() {
        let tenants = toy_tenants();
        let first: Vec<_> = (0..64).map(|id| request_of(3, id, &tenants)).collect();
        let again: Vec<_> = (0..64).map(|id| request_of(3, id, &tenants)).collect();
        assert_eq!(first, again);
        let other: Vec<_> = (0..64).map(|id| request_of(4, id, &tenants)).collect();
        assert_ne!(first, other);
        assert!(first
            .iter()
            .enumerate()
            .all(|(id, &(t, _))| t as usize == id % 2));
        assert!(first
            .iter()
            .all(|&(t, pick)| pick < tenants[t as usize].features.len()));
    }
}
