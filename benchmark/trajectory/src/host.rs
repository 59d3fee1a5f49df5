//! The host's speed, measured beside the workload.
//!
//! The machines this benchmark runs on are a few virtual cores of a shared
//! host, and a neighbour on the same physical cores slows everything by 15 to
//! 35 % for minutes at a time (see `benchmark/README.md`, "How steady they
//! are"). No statistic inside a run removes that, because whole runs are slow.
//! So the run measures the host too: between segments of the workload, while
//! the server is idle, [`Yardstick::sample`] times six small kernels that
//! belong to the benchmark — none of them calls into the program under test,
//! so no change to the program moves them. The gated time metrics are the
//! measured ones divided by [`slowdown`]: how much slower than [`NOMINAL`]
//! the kernels ran beside them.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Seconds per kernel, in the order [`Yardstick::sample`] documents.
pub type Sample = [f64; 6];

/// What the kernels took on the host the benchmark was built on when it was
/// quiet (the 10th percentile of 120 run means). Only ratios to these are
/// used, so on another machine they shift every normalised metric by one
/// constant factor.
pub const NOMINAL: Sample = [0.0131, 0.0145, 0.0092, 0.0171, 0.0052, 0.0116];

/// Each kernel's mean time over `samples` ÷ its nominal time. The mean, not
/// the median: a neighbour's bursts are shorter than a segment, and the share
/// of samples they hit is the share of the workload they hit.
pub fn ratios(samples: &[Sample]) -> Sample {
    std::array::from_fn(|k| {
        let mean = samples.iter().map(|s| s[k]).sum::<f64>() / samples.len() as f64;
        mean / NOMINAL[k]
    })
}

/// How many times slower than [`NOMINAL`] the host ran while `samples` were
/// taken: the geometric mean of the six [`ratios`], so that every resource
/// counts the same whatever its kernel's length.
pub fn slowdown(samples: &[Sample]) -> f64 {
    let log_sum: f64 = ratios(samples).iter().map(|r| r.ln()).sum();
    (log_sum / NOMINAL.len() as f64).exp()
}

const STREAM_WORDS: usize = 4 << 20; // 32 MiB of u64: past the last-level cache
const CHASE_SLOTS: usize = 4 << 20; // 16 MiB of u32
const LANES: usize = 4096; // 16 KiB of f32: first-level cache

pub struct Yardstick {
    stream: Vec<u64>,
    chase: Vec<u32>,
    lanes: Vec<f32>,
    peer: TcpStream,
    echo: JoinHandle<()>,
}

impl Yardstick {
    pub fn start() -> Result<Yardstick, String> {
        // One random cycle through every slot (Sattolo), so each load of the
        // chase depends on the one before and misses the caches.
        let mut chase: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut rng = crate::rng::Rng::new(0x5eed);
        for i in (1..CHASE_SLOTS).rev() {
            chase.swap(i, rng.below(i));
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("yardstick: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("yardstick: {e}"))?;
        // lint:allow(thread-spawn): the echo end of the hand-off kernel; it is
        // the benchmark's own and blocks in `read` except while sampled.
        let echo = std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            let _ = conn.set_nodelay(true);
            let mut byte = [0u8; 1];
            while conn.read_exact(&mut byte).is_ok() && conn.write_all(&byte).is_ok() {}
        });
        let peer = TcpStream::connect(addr).map_err(|e| format!("yardstick: {e}"))?;
        peer.set_nodelay(true)
            .map_err(|e| format!("yardstick: {e}"))?;
        Ok(Yardstick {
            stream: (0..STREAM_WORDS as u64).collect(),
            chase,
            lanes: vec![1.0001; LANES],
            peer,
            echo,
        })
    }

    /// Seconds each kernel took just now: spin, lanes, stream, chase, alloc,
    /// hand-off — one per resource a neighbour can take. About 80 ms.
    pub fn sample(&mut self) -> Sample {
        let mut out = [0.0; 6];
        let mut time = |slot: usize, kernel: &mut dyn FnMut()| {
            let t0 = Instant::now();
            kernel();
            out[slot] = t0.elapsed().as_secs_f64();
        };
        // A dependent integer chain: the core's clock.
        time(0, &mut || {
            let mut x = 1u64;
            for i in 0..10_000_000u64 {
                x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            black_box(x);
        });
        // Independent multiply-adds over a cache-resident vector: the
        // execution ports a sibling hyperthread shares.
        time(1, &mut || {
            for _ in 0..40_000 {
                for v in self.lanes.iter_mut() {
                    *v = *v * 1.000001 + 0.000001;
                }
                black_box(&mut self.lanes);
            }
            for v in self.lanes.iter_mut() {
                *v = 1.0001;
            }
        });
        // Sequential reads past the caches: memory bandwidth.
        time(2, &mut || {
            for _ in 0..3 {
                let mut sum = 0u64;
                for &v in &self.stream {
                    sum = sum.wrapping_add(v);
                }
                black_box(sum);
            }
        });
        // Dependent loads at random addresses: memory latency.
        time(3, &mut || {
            let mut at = 0u32;
            for _ in 0..150_000 {
                at = self.chase[at as usize];
            }
            black_box(at);
        });
        // Many small allocations and one large fresh one, touched: the
        // allocator and the kernel's page-fault path.
        time(4, &mut || {
            let mut rows: Vec<Vec<u64>> = Vec::with_capacity(100_000);
            for i in 0..100_000u64 {
                rows.push(vec![i, i + 1]);
            }
            black_box(&rows);
            drop(rows);
            let mut fresh = vec![0u8; 8 << 20];
            for i in (0..fresh.len()).step_by(4096) {
                fresh[i] = 1;
            }
            black_box(&fresh);
        });
        // One byte there and back over loopback TCP, each leg waking the
        // other thread: system calls and the scheduler's wake-up path.
        time(5, &mut || {
            let mut byte = [7u8; 1];
            for _ in 0..300 {
                if self.peer.write_all(&byte).is_err() || self.peer.read_exact(&mut byte).is_err() {
                    break;
                }
            }
        });
        out
    }

    /// Closes the connection and waits for the echo thread.
    pub fn stop(self) {
        let _ = self.peer.shutdown(std::net::Shutdown::Both);
        drop(self.peer);
        let _ = self.echo.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_geometric_mean_of_the_kernel_ratios() {
        assert!((slowdown(&[NOMINAL]) - 1.0).abs() < 1e-12);
        // Every kernel twice as slow in one of two samples: mean ratio 1.5.
        let slow = NOMINAL.map(|s| 2.0 * s);
        assert!((slowdown(&[NOMINAL, slow]) - 1.5).abs() < 1e-12);
        // One kernel of six 64 times slower: 64^(1/6) = 2.
        let mut one = NOMINAL;
        one[3] *= 64.0;
        assert!((slowdown(&[one]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn yardstick_samples_and_stops() {
        let mut yard = Yardstick::start().unwrap();
        let sample = yard.sample();
        assert!(sample.iter().all(|&s| s > 0.0));
        let x = slowdown(&[sample]);
        assert!(x.is_finite() && x > 0.0);
        yard.stop();
    }
}
