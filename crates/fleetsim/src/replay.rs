//! Arrival-ordered traffic replay with transport-fault injection.
//!
//! The per-drive fault layer ([`crate::faults`]) corrupts what each
//! drive *emits*; this module models the collector side: it interleaves
//! every drive's raw emission stream into one arrival-ordered event
//! stream (the order a fleet backend would actually receive records
//! in), chops it into fixed-size batches, and optionally injects the
//! transport-level fault classes a serving path must additionally
//! survive:
//!
//! * **batch truncation** — an uplink flush dies mid-batch and the tail
//!   of the batch never arrives;
//! * **shard-targeted burst loss** — a collector partition goes dark
//!   for a few batches, dropping exactly the records whose serials hash
//!   to one shard ([`mfpa_telemetry::SerialNumber::shard`], the same
//!   routing the fleet monitor uses);
//! * **checkpoint bit-flips** ([`flip_one_byte`]) — storage corruption
//!   of a monitor checkpoint, used to prove the recovery path rejects
//!   damaged state instead of loading it.
//!
//! Everything is deterministic in `(seed, config)`: the interleaving
//! key and the fault generator are seeded hashes, never wall-clock or
//! global RNG state.

use mfpa_telemetry::{DailyRecord, SerialNumber};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::fleet::{SimulatedDrive, SimulatedFleet};

/// One record as the collector receives it: the drive it came from plus
/// the (possibly corrupted) daily record.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalEvent {
    /// The emitting drive.
    pub serial: SerialNumber,
    /// The delivered record.
    pub record: DailyRecord,
}

/// Transport-fault rates for the batched replay ([`into_batches`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportFaultConfig {
    /// Probability a batch is truncated (its tail dropped at a random
    /// cut point).
    pub batch_truncation_rate: f64,
    /// Probability, per batch, that a shard-targeted loss burst starts:
    /// for the next [`TransportFaultConfig::burst_len`] batches every
    /// record routed to one (randomly chosen) shard is dropped.
    pub burst_loss_rate: f64,
    /// Length of a loss burst, in batches.
    pub burst_len: u64,
    /// Shard count used to target bursts; align it with the consuming
    /// monitor's shard count so a burst starves exactly one shard.
    pub n_shards: usize,
}

impl TransportFaultConfig {
    /// All rates zero: transport is lossless.
    pub fn none() -> Self {
        TransportFaultConfig {
            batch_truncation_rate: 0.0,
            burst_loss_rate: 0.0,
            burst_len: 3,
            n_shards: 8,
        }
    }

    /// Whether any transport fault class is active.
    pub fn is_enabled(&self) -> bool {
        self.batch_truncation_rate > 0.0 || self.burst_loss_rate > 0.0
    }
}

impl Default for TransportFaultConfig {
    fn default() -> Self {
        TransportFaultConfig::none()
    }
}

/// Accounting for one batched replay: every record the transport layer
/// dropped, by class. `delivered + truncated_records + burst_dropped`
/// equals the arrival stream's length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportFaultCounts {
    /// Batches produced (after faults).
    pub batches: u64,
    /// Batches that lost their tail.
    pub truncated_batches: u64,
    /// Records dropped by batch truncation.
    pub truncated_records: u64,
    /// Loss bursts started.
    pub bursts: u64,
    /// Records dropped by shard-targeted bursts.
    pub burst_dropped: u64,
    /// Records surviving into the delivered batches.
    pub delivered: u64,
}

/// SplitMix64-style finalizer for the interleaving tie-break key.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Interleaves every drive's raw emission stream into one
/// arrival-ordered event stream.
///
/// Each record's arrival stamp is the *running maximum* day its drive
/// has emitted so far — uplinks deliver a drive's queue in emission
/// order, so a clock-skewed or swapped record travels with its
/// neighbours rather than teleporting across the stream. Events are
/// ordered by `(stamp, hash(serial, stamp))`, ties kept in emission
/// order: per-drive emission order is preserved exactly (stamps are
/// non-decreasing within a drive), while drives reporting on the same
/// day arrive interleaved in a deterministic pseudo-random order rather
/// than serial order.
///
/// Only the order is built up front, as one small index entry per
/// record; the stream borrows the fleet and clones each record as it is
/// consumed, so no staged copy of the fleet's telemetry exists.
pub fn arrival_stream(fleet: &SimulatedFleet) -> ArrivalStream<'_> {
    let drives = fleet.drives();
    let mut order: Vec<(i64, u64, usize, usize)> =
        Vec::with_capacity(drives.iter().map(|d| d.raw_records().len()).sum());
    for (drive_ix, drive) in drives.iter().enumerate() {
        let serial = drive.serial();
        let mut stamp = i64::MIN;
        for (rec_ix, record) in drive.raw_records().iter().enumerate() {
            stamp = stamp.max(record.day.day());
            let tie = mix64(
                serial
                    .id()
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(((serial.vendor().index() as u64) + 1) << 59)
                    ^ (stamp as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            );
            order.push((stamp, tie, drive_ix, rec_ix));
        }
    }
    // Entries were pushed in (drive, record) order, so breaking
    // (stamp, tie) ties by the indices is the stable order: same-drive
    // same-stamp records keep emission order.
    order.sort_unstable();
    ArrivalStream {
        drives,
        order: order.into_iter(),
    }
}

/// The arrival-ordered events of one fleet, from [`arrival_stream`].
/// Yields each record as an owned [`ArrivalEvent`], cloned from the
/// fleet only when it is consumed.
#[derive(Debug)]
pub struct ArrivalStream<'a> {
    drives: &'a [SimulatedDrive],
    order: std::vec::IntoIter<(i64, u64, usize, usize)>,
}

impl Iterator for ArrivalStream<'_> {
    type Item = ArrivalEvent;

    fn next(&mut self) -> Option<ArrivalEvent> {
        let (_, _, drive_ix, rec_ix) = self.order.next()?;
        let drive = &self.drives[drive_ix];
        Some(ArrivalEvent {
            serial: drive.serial(),
            record: drive.raw_records()[rec_ix].clone(),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.order.size_hint()
    }
}

impl ExactSizeIterator for ArrivalStream<'_> {}

/// Seeds the transport-fault generator; the constant keeps it disjoint
/// from the fleet, telemetry and per-drive fault streams.
fn transport_seed(seed: u64) -> u64 {
    mix64(seed ^ 0x7472_616E_7370_6F72) // "transpor"
}

/// Chops an arrival stream into fixed-size batches, injecting the
/// configured transport faults. Deterministic in `(events, batch_size,
/// faults, seed)`.
pub fn into_batches(
    events: impl IntoIterator<Item = ArrivalEvent>,
    batch_size: usize,
    faults: &TransportFaultConfig,
    seed: u64,
) -> (Vec<Vec<ArrivalEvent>>, TransportFaultCounts) {
    let events = events.into_iter();
    let batch_size = batch_size.max(1);
    let mut counts = TransportFaultCounts::default();
    let mut batches: Vec<Vec<ArrivalEvent>> =
        Vec::with_capacity(events.size_hint().0 / batch_size + 1);
    let mut rng = StdRng::seed_from_u64(transport_seed(seed));
    let mut burst_remaining = 0u64;
    let mut burst_shard = 0usize;
    let mut batch = Vec::with_capacity(batch_size);
    let mut flush =
        |batch: &mut Vec<ArrivalEvent>, rng: &mut StdRng, counts: &mut TransportFaultCounts| {
            if batch.is_empty() {
                return;
            }
            if faults.batch_truncation_rate > 0.0 && rng.random_bool(faults.batch_truncation_rate) {
                let keep = rng.random_range(0..batch.len());
                counts.truncated_batches += 1;
                counts.truncated_records += (batch.len() - keep) as u64;
                batch.truncate(keep);
            }
            counts.delivered += batch.len() as u64;
            counts.batches += 1;
            batches.push(std::mem::take(batch));
        };
    for ev in events {
        if batch.is_empty() {
            // Burst state advances per batch, decided as the batch opens.
            if burst_remaining > 0 {
                burst_remaining -= 1;
            } else if faults.burst_loss_rate > 0.0 && rng.random_bool(faults.burst_loss_rate) {
                burst_remaining = faults.burst_len.max(1);
                burst_shard = rng.random_range(0..faults.n_shards.max(1));
                counts.bursts += 1;
            }
        }
        if burst_remaining > 0 && ev.serial.shard(faults.n_shards.max(1)) == burst_shard {
            counts.burst_dropped += 1;
            continue;
        }
        batch.push(ev);
        if batch.len() == batch_size {
            flush(&mut batch, &mut rng, &mut counts);
        }
    }
    flush(&mut batch, &mut rng, &mut counts);
    (batches, counts)
}

/// Flips one bit of `data` at a seed-derived position, simulating
/// storage corruption of a checkpoint file. Returns the flipped byte's
/// offset, or `None` for empty input.
pub fn flip_one_byte(data: &mut [u8], seed: u64) -> Option<usize> {
    if data.is_empty() {
        return None;
    }
    let pos = (mix64(seed ^ 0x666C_6970) % data.len() as u64) as usize;
    let bit = (mix64(seed ^ 0x6269_7421) % 8) as u8;
    data[pos] ^= 1 << bit;
    Some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultConfig, FleetConfig};
    use mfpa_telemetry::FirmwareVersion;
    use std::collections::BTreeMap;

    fn fleet() -> SimulatedFleet {
        SimulatedFleet::generate(
            &FleetConfig::tiny(11)
                .with_population_fraction(0.0005)
                .with_faults(FaultConfig::uniform(0.02)),
        )
    }

    type EventBits = (
        SerialNumber,
        i64,
        [u64; 16],
        FirmwareVersion,
        [u32; 9],
        [u32; 23],
    );

    /// Bit-exact event identity. Injected faults put NaNs in SMART
    /// pages, so `PartialEq` (NaN != NaN) cannot prove two streams
    /// equal — compare bit patterns instead.
    fn fingerprint(events: &[ArrivalEvent]) -> Vec<EventBits> {
        events
            .iter()
            .map(|ev| {
                let mut bits = [0u64; 16];
                for (b, v) in bits.iter_mut().zip(ev.record.smart.as_slice()) {
                    *b = v.to_bits();
                }
                let r = &ev.record;
                (
                    ev.serial,
                    r.day.day(),
                    bits,
                    r.firmware.clone(),
                    r.w_counts,
                    r.b_counts,
                )
            })
            .collect()
    }

    /// The staged construction [`arrival_stream`] replaced, kept as its
    /// oracle: every event cloned into a keyed vector, then stably
    /// sorted by `(stamp, tie)`.
    fn staged_arrival_stream(fleet: &SimulatedFleet) -> Vec<ArrivalEvent> {
        let mut keyed: Vec<(i64, u64, ArrivalEvent)> = Vec::new();
        for drive in fleet.drives() {
            let serial = drive.serial();
            let mut stamp = i64::MIN;
            for record in drive.raw_records() {
                stamp = stamp.max(record.day.day());
                let tie = mix64(
                    serial
                        .id()
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(((serial.vendor().index() as u64) + 1) << 59)
                        ^ (stamp as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
                );
                keyed.push((
                    stamp,
                    tie,
                    ArrivalEvent {
                        serial,
                        record: record.clone(),
                    },
                ));
            }
        }
        keyed.sort_by_key(|(stamp, tie, _)| (*stamp, *tie));
        keyed.into_iter().map(|(_, _, ev)| ev).collect()
    }

    #[test]
    fn arrival_stream_matches_the_staged_sort() {
        let fleet = fleet();
        let stream = arrival_stream(&fleet);
        let staged = staged_arrival_stream(&fleet);
        assert_eq!(stream.len(), staged.len());
        let streamed: Vec<ArrivalEvent> = stream.collect();
        assert_eq!(fingerprint(&streamed), fingerprint(&staged));
    }

    #[test]
    fn batching_the_stream_equals_batching_its_collection() {
        let fleet = fleet();
        let cfg = TransportFaultConfig {
            batch_truncation_rate: 0.1,
            burst_loss_rate: 0.05,
            burst_len: 2,
            n_shards: 8,
        };
        let collected: Vec<ArrivalEvent> = arrival_stream(&fleet).collect();
        let (lazy, lazy_counts) = into_batches(arrival_stream(&fleet), 128, &cfg, 5);
        let (staged, staged_counts) = into_batches(collected, 128, &cfg, 5);
        assert_eq!(lazy_counts, staged_counts);
        assert_eq!(lazy.len(), staged.len());
        for (a, b) in lazy.iter().zip(&staged) {
            assert_eq!(fingerprint(a), fingerprint(b));
        }
    }

    #[test]
    fn arrival_stream_preserves_per_drive_emission_order() {
        let fleet = fleet();
        let stream: Vec<ArrivalEvent> = arrival_stream(&fleet).collect();
        let total: usize = fleet.drives().iter().map(|d| d.raw_records().len()).sum();
        assert_eq!(stream.len(), total);
        // Partition back per drive: each drive's subsequence must be its
        // raw emission stream, bit for bit.
        let mut per_drive: BTreeMap<SerialNumber, Vec<&DailyRecord>> = BTreeMap::new();
        for ev in &stream {
            per_drive.entry(ev.serial).or_default().push(&ev.record);
        }
        for drive in fleet.drives() {
            let got = per_drive.remove(&drive.serial()).unwrap_or_default();
            let want: Vec<&DailyRecord> = drive.raw_records().iter().collect();
            assert_eq!(got.len(), want.len(), "drive {}", drive.serial());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.day, w.day);
                let gb: Vec<u64> = g.smart.as_slice().iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u64> = w.smart.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb);
            }
        }
        // Arrival stamps are globally non-decreasing.
        let mut per_drive_stamp: BTreeMap<SerialNumber, i64> = BTreeMap::new();
        let mut last = i64::MIN;
        for ev in &stream {
            let s = per_drive_stamp.entry(ev.serial).or_insert(i64::MIN);
            *s = (*s).max(ev.record.day.day());
            assert!(*s >= last, "arrival stamps regressed");
            last = *s;
        }
    }

    #[test]
    fn arrival_stream_is_deterministic_and_interleaved() {
        let fleet = fleet();
        let a: Vec<ArrivalEvent> = arrival_stream(&fleet).collect();
        let b: Vec<ArrivalEvent> = arrival_stream(&fleet).collect();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // Not clustered per drive: adjacent events usually switch drives.
        let switches = a.windows(2).filter(|w| w[0].serial != w[1].serial).count();
        assert!(
            switches * 2 > a.len(),
            "{switches} switches in {} events",
            a.len()
        );
    }

    #[test]
    fn lossless_batching_partitions_the_stream() {
        let fleet = fleet();
        let stream: Vec<ArrivalEvent> = arrival_stream(&fleet).collect();
        let n = stream.len();
        let (batches, counts) = into_batches(stream.clone(), 128, &TransportFaultConfig::none(), 5);
        assert_eq!(counts.delivered as usize, n);
        assert_eq!(counts.truncated_records + counts.burst_dropped, 0);
        let rejoined: Vec<ArrivalEvent> = batches.into_iter().flatten().collect();
        assert_eq!(rejoined.len(), n);
        assert_eq!(fingerprint(&rejoined), fingerprint(&stream));
    }

    #[test]
    fn transport_faults_account_for_every_dropped_record() {
        let fleet = fleet();
        let stream = arrival_stream(&fleet);
        let n = stream.len() as u64;
        let cfg = TransportFaultConfig {
            batch_truncation_rate: 0.1,
            burst_loss_rate: 0.05,
            burst_len: 2,
            n_shards: 8,
        };
        let (batches, counts) = into_batches(stream, 128, &cfg, 5);
        assert_eq!(
            counts.delivered + counts.truncated_records + counts.burst_dropped,
            n,
            "{counts:?}"
        );
        assert!(counts.truncated_batches > 0);
        assert!(counts.bursts > 0);
        let delivered: u64 = batches.iter().map(|b| b.len() as u64).sum();
        assert_eq!(delivered, counts.delivered);
        // Deterministic replay.
        let fleet2 = super::super::fleet::SimulatedFleet::generate(fleet.config());
        let (batches2, counts2) = into_batches(arrival_stream(&fleet2), 128, &cfg, 5);
        assert_eq!(counts, counts2);
        assert_eq!(batches.len(), batches2.len());
        for (a, b) in batches.iter().zip(&batches2) {
            assert_eq!(fingerprint(a), fingerprint(b));
        }
    }

    #[test]
    fn bursts_starve_exactly_one_shard() {
        let fleet = fleet();
        let stream: Vec<ArrivalEvent> = arrival_stream(&fleet).collect();
        let cfg = TransportFaultConfig {
            batch_truncation_rate: 0.0,
            burst_loss_rate: 1.0,
            burst_len: 1,
            n_shards: 4,
        };
        let (batches, counts) = into_batches(stream.clone(), 64, &cfg, 9);
        assert!(counts.burst_dropped > 0);
        assert!(counts.bursts > 1, "{counts:?}");
        // With rate 1.0 and burst_len 1 a fresh burst opens every other
        // batch; those batches are missing one shard's records while
        // batches between bursts see all four shards.
        let starved = batches
            .iter()
            .filter(|batch| {
                let shards: std::collections::BTreeSet<usize> =
                    batch.iter().map(|ev| ev.serial.shard(4)).collect();
                shards.len() < 4
            })
            .count();
        assert!(
            starved * 3 > batches.len(),
            "{starved} starved of {} batches",
            batches.len()
        );
    }

    #[test]
    fn flip_one_byte_flips_exactly_one_bit() {
        let mut data = vec![0u8; 257];
        let orig = data.clone();
        let pos = flip_one_byte(&mut data, 3).expect("non-empty");
        let diff: Vec<usize> = (0..data.len()).filter(|&i| data[i] != orig[i]).collect();
        assert_eq!(diff, vec![pos]);
        assert_eq!((data[pos] ^ orig[pos]).count_ones(), 1);
        assert_eq!(flip_one_byte(&mut [], 3), None);
    }
}
