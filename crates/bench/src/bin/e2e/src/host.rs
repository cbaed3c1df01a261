//! Host-speed scaling.
//!
//! Co-tenants of the benchmark's host slow execution itself by 20–50% for
//! seconds to tens of seconds at a time (thread CPU time grows exactly as
//! much as wall time, so no choice of clock avoids it), and a 10-second run
//! can fall entirely inside such a stretch. So every timed pass is followed
//! by a fixed reference kernel, and the pass's times are multiplied by
//! [`scale`]: the kernel's quiet-host time over its time right now. A
//! reported time is thus what the pass would have taken on the quiet host;
//! a change to the program moves it exactly as it moves wall time, while a
//! co-tenant's burst slows the kernel and the pass alike and cancels out.
//!
//! The kernel must not depend on what the program did before it: it reuses
//! its buffers (so the allocator's state does not matter), and a first,
//! untimed run warms the caches the pass left cold. The median of three
//! timed runs follows.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the quiet host the bounds were calibrated on (two
/// vCPUs of an Intel Xeon at 2.0 GHz), in nanoseconds.
pub const QUIET_KERNEL_NS: f64 = 4.3e6;

/// Keys the kernel sorts; every fourth goes into its hash map.
const KEYS: usize = 200_000;

/// Fixed work shaped like a crawl's: a sort and a hash-map build with a
/// fixed-key hasher, over buffers allocated once.
struct Kernel {
    keys: Vec<u64>,
    map: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            keys: Vec::with_capacity(KEYS),
            map: HashMap::with_capacity_and_hasher(KEYS / 4, Default::default()),
        }
    }

    /// One run's wall time in nanoseconds.
    fn run(&mut self) -> f64 {
        let start = Instant::now();
        self.keys.clear();
        self.keys
            .extend((0..KEYS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i >> 3)));
        self.keys.sort_unstable();
        self.map.clear();
        self.map.extend(self.keys.iter().copied().step_by(4).zip(0..));
        black_box((&self.keys, &self.map));
        start.elapsed().as_nanos() as f64
    }
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::new());
}

/// The factor that maps times measured just now to the quiet host.
pub fn scale() -> f64 {
    KERNEL.with(|k| {
        let mut k = k.borrow_mut();
        k.run();
        let mut t = [k.run(), k.run(), k.run()];
        t.sort_by(f64::total_cmp);
        QUIET_KERNEL_NS / t[1]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_reuses_its_buffers() {
        let mut k = Kernel::new();
        let (keys, map) = (k.keys.capacity(), k.map.capacity());
        k.run();
        k.run();
        assert_eq!((k.keys.capacity(), k.map.capacity()), (keys, map), "no reallocation");
        assert_eq!(k.map.len(), KEYS / 4);
        assert!(k.keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(scale() > 0.0);
    }
}
