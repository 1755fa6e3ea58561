//! Protocol-robustness and end-to-end serving tests: hostile bytes,
//! slow-loris clients, stuck writers, lost wake-ups, overload, and the
//! cross-interleaving determinism contract — all over real sockets.

use fault_inject::model::BitErrorRates;
use fault_inject::protection::ProtectionPolicy;
use neural::network::Mlp;
use neural::quant::{Encoding, QuantizedMlp};
use proptest::prelude::*;
use sram_net::loadgen::{self, LoadOptions, TenantStream};
use sram_net::proto::{
    decode_request, decode_response, encode_request, response_mix, FrameDecoder, Request,
    RequestBody, Status, MAX_FEATURES,
};
use sram_net::registry::{ModelRegistry, TenantSpec};
use sram_net::server::{self, NetServerOptions, RunningServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_spec(name: &str, shape: &[usize], seed: u64, read_6t: f64) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        network: QuantizedMlp::from_mlp(&Mlp::new(shape, seed), Encoding::TwosComplement),
        policy: ProtectionPolicy::MsbProtected { msb_8t: 3 },
        rates: BitErrorRates {
            read_6t,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        },
        vdd: 0.7,
        energy_per_inference_j: 1e-9,
        drowsy_scale: 0.4,
    }
}

fn two_tenants(base_seed: u64, read_6t: [f64; 2]) -> Arc<ModelRegistry> {
    Arc::new(ModelRegistry::new(
        vec![
            tiny_spec("alpha", &[12, 8, 4], 1, read_6t[0]),
            tiny_spec("beta", &[9, 6, 3], 2, read_6t[1]),
        ],
        base_seed,
        2,
    ))
}

fn tiny_registry(base_seed: u64) -> Arc<ModelRegistry> {
    two_tenants(base_seed, [0.02, 0.1])
}

/// The tiny tenants with no read faults anywhere in the store, so every
/// micro-batch of two or more requests takes the batch-amortized fetch.
fn fault_free_registry(base_seed: u64) -> Arc<ModelRegistry> {
    two_tenants(base_seed, [0.0, 0.0])
}

fn spawn_tiny(options: NetServerOptions) -> RunningServer {
    server::spawn(tiny_registry(77), options).expect("bind loopback")
}

fn tiny_streams() -> Vec<TenantStream> {
    vec![
        TenantStream {
            tenant: 0,
            features: (0..8)
                .map(|v| {
                    (0..12)
                        .map(|j| ((v * 13 + j * 5) % 31) as f32 / 31.0)
                        .collect()
                })
                .collect(),
        },
        TenantStream {
            tenant: 1,
            features: (0..8)
                .map(|v| {
                    (0..9)
                        .map(|j| ((v * 7 + j * 11) % 29) as f32 / 29.0)
                        .collect()
                })
                .collect(),
        },
    ]
}

/// Blocking client connection with a read timeout, for the raw-socket
/// probes.
fn connect(server: &RunningServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let _ = stream.set_nodelay(true);
    stream
}

/// Reads one length-prefixed response frame off a blocking stream.
fn read_response(stream: &mut TcpStream) -> sram_net::Response {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 512];
    loop {
        if let Some(payload) = decoder.next_frame().expect("frame within bounds") {
            return decode_response(&payload).expect("decodable response");
        }
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "server closed before responding");
        decoder.extend(&buf[..n]);
    }
}

fn classify_frame(tenant: u16, request_id: u64, features: Vec<f32>) -> Vec<u8> {
    encode_request(&Request {
        tenant,
        request_id,
        body: RequestBody::Classify(features),
    })
}

// ---------------------------------------------------------------------
// Pure-protocol property tests: hostile bytes must never panic, hang,
// or balloon memory — they decode or they error, nothing else.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn decoder_survives_arbitrary_byte_soup(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&data);
        loop {
            match decoder.next_frame() {
                Ok(Some(payload)) => {
                    // Whatever framed payload fell out must decode totally.
                    let _ = decode_request(&payload);
                    let _ = decode_response(&payload);
                }
                Ok(None) => break,
                Err(oversized) => {
                    prop_assert!(oversized.declared > sram_net::MAX_FRAME);
                    break;
                }
            }
        }
    }

    #[test]
    fn truncated_frames_never_decode(
        features in proptest::collection::vec(-1e3f32..1e3, 0..64),
        cut in 0usize..1000,
    ) {
        let frame = classify_frame(1, 42, features);
        let cut = cut % frame.len(); // strictly shorter than the full frame
        let mut decoder = FrameDecoder::new();
        decoder.extend(&frame[..cut]);
        // A prefix of a valid frame is at most an incomplete frame — never
        // a complete (mis)parsed one.
        prop_assert!(decoder.next_frame().expect("within bounds").is_none());
        prop_assert_eq!(decoder.has_partial(), cut > 0);
    }

    #[test]
    fn bit_flipped_frames_decode_totally(
        features in proptest::collection::vec(-1e3f32..1e3, 1..64),
        byte_idx in 0usize..1000,
        bit in 0u8..8,
    ) {
        let mut frame = classify_frame(0, 7, features);
        let idx = byte_idx % frame.len();
        frame[idx] ^= 1 << bit;
        let mut decoder = FrameDecoder::new();
        decoder.extend(&frame);
        match decoder.next_frame() {
            Err(oversized) => prop_assert!(oversized.declared > sram_net::MAX_FRAME),
            Ok(None) => {} // flip hit the length prefix; frame now incomplete
            Ok(Some(payload)) => {
                if let Ok(req) = decode_request(&payload) {
                    if let RequestBody::Classify(feats) = req.body {
                        // A corrupted count can never balloon the allocation.
                        prop_assert!(feats.len() <= MAX_FEATURES);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Live-server robustness.
// ---------------------------------------------------------------------

#[test]
fn ping_unknown_tenant_and_bad_width_get_structured_errors() {
    let server = spawn_tiny(NetServerOptions::default());
    let mut stream = connect(&server);

    let ping = encode_request(&Request {
        tenant: 0,
        request_id: 5,
        body: RequestBody::Ping,
    });
    stream.write_all(&ping).unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.request_id, 5);
    assert!(resp.reply.is_none(), "ping carries no classify reply");

    stream
        .write_all(&classify_frame(9, 6, vec![0.0; 12]))
        .unwrap();
    assert_eq!(read_response(&mut stream).status, Status::UnknownTenant);

    stream
        .write_all(&classify_frame(0, 7, vec![0.0; 5]))
        .unwrap();
    assert_eq!(read_response(&mut stream).status, Status::BadRequest);

    // The connection survived all three errors and still serves.
    stream
        .write_all(&classify_frame(0, 8, vec![0.5; 12]))
        .unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, Status::Ok);
    assert!(resp.reply.is_some());

    let report = server.stop();
    assert_eq!(report.pings, 1);
    assert_eq!(report.served(), 1);
}

#[test]
fn oversized_frame_is_rejected_and_connection_dropped() {
    let server = spawn_tiny(NetServerOptions::default());
    let mut stream = connect(&server);
    // Declare a frame far beyond MAX_FRAME; send only the prefix.
    stream
        .write_all(&(8 * 1024 * 1024u32).to_le_bytes())
        .unwrap();
    stream.write_all(&[0u8; 64]).unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, Status::FrameTooLarge);
    // The server closes its side after responding.
    let mut buf = [0u8; 64];
    let eof = (0..100).any(|_| matches!(stream.read(&mut buf), Ok(0)));
    assert!(eof, "connection should be closed after FrameTooLarge");
    let report = server.stop();
    assert_eq!(report.bad_frames, 1);
    assert_eq!(report.conns_dropped, 1);
}

#[test]
fn garbage_payload_gets_bad_request_not_a_hang() {
    let server = spawn_tiny(NetServerOptions::default());
    let mut stream = connect(&server);
    // Valid length prefix, garbage payload.
    let garbage = [0xFFu8; 16];
    stream
        .write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&garbage).unwrap();
    assert_eq!(read_response(&mut stream).status, Status::BadRequest);
    // Still serving afterwards.
    stream
        .write_all(&classify_frame(1, 9, vec![0.25; 9]))
        .unwrap();
    assert_eq!(read_response(&mut stream).status, Status::Ok);
    let report = server.stop();
    assert_eq!(report.bad_frames, 1);
}

#[test]
fn truncated_frame_then_abort_does_not_wedge_the_server() {
    let server = spawn_tiny(NetServerOptions::default());
    {
        let mut stream = connect(&server);
        // Half a frame, then slam the connection shut.
        let frame = classify_frame(0, 3, vec![0.1; 12]);
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
    }
    // A fresh connection must still be served promptly.
    let mut stream = connect(&server);
    stream
        .write_all(&classify_frame(0, 4, vec![0.1; 12]))
        .unwrap();
    assert_eq!(read_response(&mut stream).status, Status::Ok);
    let report = server.stop();
    assert_eq!(report.served(), 1);
}

#[test]
fn slow_loris_partial_frame_is_dropped_at_the_read_timeout() {
    let server = spawn_tiny(NetServerOptions {
        read_idle_timeout: Duration::from_millis(150),
        ..NetServerOptions::default()
    });
    let mut loris = connect(&server);
    // Two bytes of a declared 10-byte frame, then silence.
    loris.write_all(&10u32.to_le_bytes()).unwrap();
    loris.write_all(&[1, 2]).unwrap();
    // An idle-but-clean connection (no partial frame) must NOT be dropped.
    let mut idle = connect(&server);
    std::thread::sleep(Duration::from_millis(400));
    let mut buf = [0u8; 64];
    let eof = (0..100).any(|_| matches!(loris.read(&mut buf), Ok(0)));
    assert!(eof, "slow-loris connection should be dropped");
    idle.write_all(&classify_frame(0, 1, vec![0.3; 12]))
        .unwrap();
    assert_eq!(read_response(&mut idle).status, Status::Ok);
    let report = server.stop();
    assert_eq!(report.conns_dropped, 1, "only the loris is dropped");
}

#[test]
fn stuck_writer_is_dropped_while_other_connections_are_served() {
    let server = spawn_tiny(NetServerOptions {
        max_write_buffer: 4096,
        ..NetServerOptions::default()
    });
    let stuck = connect(&server);
    stuck
        .set_write_timeout(Some(Duration::from_secs(20)))
        .expect("write timeout");
    // Pipelined tiny classify requests, 256 per write; answers (served or
    // shed) pile up because this client never reads.
    let batch: Vec<u8> = (0..256u64)
        .flat_map(|i| classify_frame(0, i, vec![0.2; 12]))
        .collect();
    std::thread::scope(|scope| {
        let flood = scope.spawn(|| {
            let mut stuck = &stuck;
            // Far more answers than loopback socket buffers hold; the
            // server must drop the connection long before the last batch.
            for _ in 0..4096 {
                if let Err(e) = stuck.write_all(&batch) {
                    return Some(e.kind());
                }
            }
            None
        });
        // Meanwhile another connection is served normally.
        let mut other = connect(&server);
        other
            .write_all(&classify_frame(1, 1, vec![0.4; 9]))
            .unwrap();
        assert_eq!(read_response(&mut other).status, Status::Ok);
        let failed = flood.join().expect("flood thread");
        assert!(
            failed.is_some_and(|kind| kind != std::io::ErrorKind::WouldBlock
                && kind != std::io::ErrorKind::TimedOut),
            "stuck writer was never dropped (write outcome {failed:?})"
        );
    });
    let report = server.stop();
    assert_eq!(report.conns_dropped, 1, "only the stuck writer is dropped");
}

/// The server's housekeeping period: the longest an idle IO thread waits
/// without a wake-up (`HOUSEKEEPING` in `server.rs`).
const HOUSEKEEPING: Duration = Duration::from_millis(10);

#[test]
fn sequential_round_trips_and_stop_never_wait_out_an_idle_period() {
    let server = spawn_tiny(NetServerOptions::default());
    let mut stream = connect(&server);
    let rounds = 1000u32;
    let started = Instant::now();
    for i in 0..rounds {
        stream
            .write_all(&classify_frame(0, u64::from(i), vec![0.6; 12]))
            .unwrap();
        assert_eq!(read_response(&mut stream).status, Status::Ok);
    }
    // Each round trip sleeps the IO thread twice (before the request and
    // before the worker's result); a lost wake-up costs a whole period.
    let elapsed = started.elapsed();
    assert!(
        elapsed < HOUSEKEEPING * rounds / 4,
        "{rounds} round trips took {elapsed:?}"
    );
    // An idle server with an open, idle connection stops promptly.
    let stopping = Instant::now();
    let report = server.stop();
    assert!(
        stopping.elapsed() < Duration::from_secs(1),
        "stop took {:?}",
        stopping.elapsed()
    );
    assert_eq!(report.served(), u64::from(rounds));
    drop(stream);
}

#[test]
fn burst_overload_sheds_explicitly_and_recovers() {
    let server = spawn_tiny(NetServerOptions {
        workers: 1,
        global_inflight: 4,
        soft_inflight: 2,
        per_conn_inflight: 4,
        ..NetServerOptions::default()
    });
    let load = loadgen::run(
        server.addr(),
        &tiny_streams(),
        &LoadOptions {
            rate: 0.0, // burst: everything arrives at t=0
            requests: 96,
            connections: 3,
            seed: 11,
            drain_timeout: Duration::from_secs(20),
        },
    )
    .expect("load run");
    let report = server.stop();
    assert_eq!(load.sent, 96);
    assert!(load.shed > 0, "tiny caps under burst must shed");
    assert_eq!(
        load.ok + load.shed,
        96,
        "every request gets a structured answer"
    );
    assert_eq!(load.errors, 0);
    assert_eq!(report.served(), load.ok);
    assert_eq!(report.shed(), load.shed);
    // Client and server digests cover the same served set.
    assert_eq!(load.digest, report.digest());
    let degrades: u64 = report.tenants.iter().map(|t| t.degrade_events).sum();
    assert!(degrades > 0, "soft watermark must fire under burst");
}

#[test]
fn digests_are_identical_across_connection_and_worker_counts() {
    let run = |registry: Arc<ModelRegistry>, workers: usize, connections: usize| {
        let server = server::spawn(
            registry,
            NetServerOptions {
                workers,
                ..NetServerOptions::default()
            },
        )
        .expect("bind loopback");
        let load = loadgen::run(
            server.addr(),
            &tiny_streams(),
            &LoadOptions {
                rate: 4000.0,
                requests: 128,
                connections,
                seed: 5,
                drain_timeout: Duration::from_secs(20),
            },
        )
        .expect("load run");
        let report = server.stop();
        assert_eq!(load.ok, 128, "sub-saturation run must serve everything");
        assert_eq!(load.digest, report.digest());
        // One residual per served reply, never more than its sojourn.
        assert_eq!(load.residual.count(), load.ok);
        assert!(load.residual.max_ns() <= load.sojourn.max_ns());
        (load.digest, load.fault_bits)
    };
    let a = run(tiny_registry(77), 1, 1);
    let b = run(tiny_registry(77), 4, 5);
    assert_eq!(a, b, "digest must not depend on workers or connections");
    let c = run(fault_free_registry(77), 1, 1);
    let d = run(fault_free_registry(77), 4, 5);
    assert_eq!(
        c, d,
        "fault-free digest must not depend on workers or connections"
    );
    assert_eq!(c.1, 0, "a read-fault-free store injects no fault bits");
}

/// A closed-loop burst of `requests` on `registry` at one worker; returns
/// the client digest, the server digest, and the sequential
/// `ModelRegistry::classify` digest with its total fault bits.
fn burst_against_sequential(registry: &Arc<ModelRegistry>, requests: u64) -> [u64; 4] {
    let server = server::spawn(
        Arc::clone(registry),
        NetServerOptions {
            workers: 1,
            ..NetServerOptions::default()
        },
    )
    .expect("bind loopback");
    let streams = tiny_streams();
    let load = loadgen::run(
        server.addr(),
        &streams,
        &LoadOptions {
            rate: 0.0,
            requests: requests as usize,
            connections: 2,
            seed: 5,
            drain_timeout: Duration::from_secs(20),
        },
    )
    .expect("load run");
    let report = server.stop();
    assert_eq!(
        load.ok, requests,
        "default caps shed nothing at {requests} in flight"
    );
    // Loadgen's documented mapping: request `i` is stream `i % streams`,
    // feature vector `(i / streams) % features`, request id `i`.
    let mut ctx = registry.make_context(0);
    let mut fault_bits = 0u64;
    let expected = (0..requests).fold(0u64, |acc, id| {
        let s = &streams[id as usize % streams.len()];
        let features = &s.features[(id as usize / streams.len()) % s.features.len()];
        let (prediction, bits) = registry.classify(s.tenant.into(), features, id, &mut ctx);
        fault_bits += bits;
        acc.wrapping_add(response_mix(s.tenant, id, prediction as u16, bits as u32))
    });
    assert_eq!(load.fault_bits, fault_bits);
    [load.digest, report.digest(), expected, fault_bits]
}

#[test]
fn burst_on_a_fault_free_store_matches_sequential_classify() {
    let [client, server, expected, fault_bits] =
        burst_against_sequential(&fault_free_registry(77), 128);
    assert_eq!(fault_bits, 0);
    assert_eq!(client, expected);
    assert_eq!(server, expected);
}

#[test]
fn burst_on_a_read_faulty_store_matches_sequential_classify() {
    let [client, server, expected, fault_bits] = burst_against_sequential(&tiny_registry(77), 128);
    assert!(fault_bits > 0, "the tiny tenants fault on read");
    assert_eq!(client, expected);
    assert_eq!(server, expected);
}
