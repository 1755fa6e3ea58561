//! The word-at-a-time scrub sweep, kept as the reference the production
//! sweep (`sram_array::scrub::scrub_pass`) is checked against.
//!
//! It reads every word through `ShardedMemory::read_raw` (a shard lookup,
//! a spare-row probe and a stuck-span search per word) and decodes every
//! recombined 13-bit codeword with `SecdedCode::decode` — no chunked read,
//! no decode or encode table. It works on a copy of the sidecar's compact
//! check bytes, refreshed in place exactly as the sidecar's would be.

use sram_array::scrub::ScrubOutcome;
use sram_array::sharded::ShardedMemory;
use sram_ecc::hamming::{Decoded, SecdedCode};

/// One sweep of `memory` against `checks` (one compact check byte per
/// word); see `scrub_pass` for the meaning of `fix` and of the outcome.
pub fn scrub_reference(memory: &mut ShardedMemory, checks: &mut [u8], fix: bool) -> ScrubOutcome {
    assert_eq!(checks.len(), memory.len(), "checks must cover the store");
    let code = SecdedCode::for_weights().expect("(13,8) weight code");
    let mut out = ScrubOutcome {
        words_scanned: memory.len(),
        per_shard_corrected_bits: vec![0u64; memory.shard_count()],
        ..ScrubOutcome::default()
    };
    let flag_row = |out: &mut ScrubOutcome, row_start: usize| {
        if out.flagged_rows.last() != Some(&row_start) {
            out.flagged_rows.push(row_start);
        }
    };
    for (index, check) in checks.iter_mut().enumerate() {
        let observed = memory.read_raw(index);
        let received = code
            .place_data(u64::from(observed))
            .expect("byte payload is in range")
            | code
                .expand_checks(u64::from(*check))
                .expect("compact checks are in range");
        match code.decode(received).expect("codeword is in range") {
            Decoded::Clean { .. } => out.clean_words += 1,
            Decoded::Corrected { data, .. } => {
                out.corrected_words += 1;
                out.corrected_bits += 1;
                out.per_shard_corrected_bits[memory.shard_of(index)] += 1;
                if !fix {
                    continue;
                }
                let data = data as u8;
                if data != observed {
                    memory.write(index, data);
                    out.rewrites += 1;
                    if memory.read_raw(index) != data {
                        out.stubborn_words += 1;
                        flag_row(&mut out, memory.row_span(index).0);
                    }
                }
                let expect = code
                    .compact_checks(code.encode(u64::from(data)).expect("byte payload"))
                    .expect("own codeword") as u8;
                if *check != expect {
                    *check = expect;
                }
            }
            Decoded::Uncorrectable { .. } => {
                out.uncorrectable_words += 1;
                flag_row(&mut out, memory.row_span(index).0);
            }
        }
    }
    out
}
