//! The host's speed, measured with reference work of a fixed size.
//!
//! The benchmark runs on a few cores of a host it shares with other
//! tenants. Their load moves this process's speed by 20% and more from
//! one minute to the next, while CPU steal stays near zero: the cores
//! still run this process, but slower, as neighbours share their caches,
//! memory and execution units. Runs minutes apart would then differ by
//! more than any bound a change could be held to.
//!
//! So a run does the same reference work after every set-up and every
//! pass, and scales its timings by how long that work took. Different
//! kinds of work slow by different amounts, and no single kind follows
//! every workload, so the reference work is six kinds of about 5 ms each:
//! a pointer chase and a strided read through a 256 MiB table (memory
//! latency and bandwidth), updates to a hash map and a sort (branchy
//! integer work on cached data), independent float multiply-adds, and a
//! dependent integer chain. Each set-up is scaled by [`REFERENCE_MS`]
//! over the reference time right after it, and each pass by
//! [`REFERENCE_MS`] over the mean of the reference times just before and
//! just after it. A scaled time reads as it would on the host at the
//! speed where the reference work takes [`REFERENCE_MS`]. The reference
//! work belongs to the benchmark, not to the program, so no change to the
//! program moves it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Time of the reference work on the calibration host (2-vCPU x86-64)
/// when its neighbours are quiet, in ms.
pub const REFERENCE_MS: f64 = 30.0;
/// Entries of the reference table: 256 MiB of `u32`, a power of two.
const TABLE_LEN: usize = 1 << 26;
/// Hops of one chase through the table.
const HOPS: usize = 27_000;
/// Entries between two reads of the strided read: every fifth 64-byte
/// cache line.
const STRIDE: usize = 5 * 16;
/// Keys of the hash-map updates and the sort.
const KEYS: usize = 200_000;
/// Distinct keys, so the map stays in the core's own cache.
const DISTINCT_KEYS: u64 = 4096;
/// Sweeps of the float multiply-adds over [`FLOATS`] values.
const FLOAT_SWEEPS: usize = 6_000;
const FLOATS: usize = 1024;
/// Rounds of the dependent integer chain.
const ROUNDS: usize = 2_500_000;

/// A table whose entries, followed from any one, visit every entry once
/// before they repeat: entry `i` holds `(a * i + c) mod len`, which for
/// a power-of-two `len`, `a % 4 == 1` and odd `c` is one cycle
/// (Hull–Dobell). It is built in one sequential pass, and the hops of a
/// chase land on unrelated cache lines, which defeats prefetching.
fn cycle(len: usize) -> Vec<u32> {
    assert!(
        len.is_power_of_two() && u32::try_from(len - 1).is_ok(),
        "the table length is a power of two that indexes as u32"
    );
    const A: u64 = 1_103_515_245;
    const C: u64 = 12_345;
    let mask = len as u64 - 1;
    (0..len as u64)
        .map(|i| (A.wrapping_mul(i).wrapping_add(C) & mask) as u32)
        .collect()
}

/// The reference work's inputs and the times it took.
pub struct HostSpeed {
    table: Vec<u32>,
    keys: Vec<u64>,
    floats: Vec<f64>,
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            table: cycle(TABLE_LEN),
            keys: (0..KEYS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % DISTINCT_KEYS)
                .collect(),
            floats: (0..FLOATS).map(|i| i as f64 * 1e-3).collect(),
            samples_ms: Vec::new(),
        }
    }

    /// Does the reference work once; records and returns its time in ms.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.reference_work());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    fn reference_work(&self) -> u64 {
        let mut at = 0u32;
        for _ in 0..HOPS {
            at = self.table[at as usize];
        }
        let read = self
            .table
            .iter()
            .step_by(STRIDE)
            .fold(0u64, |s, &v| s.wrapping_add(u64::from(v)));

        let mut map: HashMap<u64, [u64; 4], BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for (i, &k) in self.keys.iter().enumerate() {
            let e = map.entry(k).or_insert([0; 4]);
            e[0] += 1;
            e[1] = e[1].max(i as u64);
            if e[0].is_multiple_of(3) {
                e[2] = e[2].wrapping_add(k.rotate_left(7));
            } else {
                e[3] = e[3].wrapping_mul(31).wrapping_add(k);
            }
        }
        let mut sorted: Vec<u64> = self
            .keys
            .iter()
            .map(|k| k.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .collect();
        sorted.sort_unstable();

        let mut acc = [0.0f64; 8];
        for sweep in 0..FLOAT_SWEEPS {
            let w = sweep as f64;
            for (j, x) in self.floats.iter().enumerate() {
                acc[j % 8] = acc[j % 8] * 0.999 + x * w;
            }
        }

        let mut chain = black_box(1u64);
        for _ in 0..ROUNDS {
            chain = chain.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 5;
        }

        u64::from(at)
            ^ read
            ^ map.values().map(|e| e[2] ^ e[3]).fold(0, u64::wrapping_add)
            ^ sorted[KEYS / 2]
            ^ acc.iter().sum::<f64>().to_bits()
            ^ chain
    }

    /// Every reference time so far, in ms.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// Memory the reference table holds resident for the whole run, in
    /// MiB: the benchmark's own, not the workload's.
    pub fn table_mib(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }
}

/// The factor that turns a time measured while the reference work took
/// `reference_ms` into the time at the reference speed.
pub fn scale(reference_ms: f64) -> f64 {
    REFERENCE_MS / reference_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle() {
        for len in [1, 2, 16, 1024] {
            let table = cycle(len);
            let (mut at, mut steps) = (0u32, 0);
            loop {
                at = table[at as usize];
                steps += 1;
                if at == 0 {
                    break;
                }
            }
            assert_eq!(steps, len, "len {len}");
        }
    }

    #[test]
    fn a_slow_host_scales_times_down() {
        assert_eq!(scale(REFERENCE_MS), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_MS), 0.5);
    }
}
