//! Keeping a workload on one CPU.
//!
//! On a two-vCPU guest the scheduler may put a lane worker next to the
//! generator or on the other vCPU, and stays with its choice for minutes. A
//! worker that sleeps on an otherwise idle vCPU is woken through the
//! hypervisor, which costs ~100 us more per timer-flushed batch than waking
//! it on the vCPU the generator keeps busy: `serve_steady` read 590-740 us
//! from run to run left alone, 616-620 us on one CPU. So the workloads that
//! keep at most one thread busy run on one CPU, chosen here.

// std links the C library; these two are all the benchmark needs of it.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const WORDS: usize = 16;

/// Restrict the calling thread — and every thread spawned from it afterwards,
/// so call it before `Server::start` — to the highest-numbered CPU it may run
/// on (the lowest tends to take the interrupts). Returns that CPU, or `None`
/// when the affinity calls fail; the run then goes on unpinned.
pub fn to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and outlives both calls; pid 0 is the
    // calling thread.
    unsafe {
        if sched_getaffinity(0, bytes, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let word = mask.iter().rposition(|&w| w != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bit;
        (sched_setaffinity(0, bytes, one.as_ptr()) == 0).then_some(word * 64 + bit)
    }
}
