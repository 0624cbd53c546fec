//! Thread placement. On a VM, whether two threads that hand work to
//! each other share a vCPU decides what a wake-up costs: a blocking
//! round trip read 3 µs with client and worker on one vCPU and 15 µs
//! across two, and the scheduler picks either from run to run. The
//! service parts therefore pin their threads, so every run measures
//! the same placement.
//!
//! A thread's CPU mask is inherited by the threads it spawns, which is
//! how a `Service` worker is placed: pin, construct, restore.

/// CPUs the calling thread may run on, lowest first. Empty if the mask
/// cannot be read (then [`pin`] does nothing).
pub fn allowed() -> Vec<usize> {
    let mask = sys::get();
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`. Returns whether it took
/// effect; an empty `cpus` is refused.
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask = [0u64; sys::WORDS];
    for &c in cpus {
        if c >= sys::WORDS * 64 {
            return false;
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    !cpus.is_empty() && sys::set(&mask)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    /// Mask words: room for 1024 CPUs, as glibc's `cpu_set_t`.
    pub const WORDS: usize = 16;
    const SCHED_SETAFFINITY: usize = 203;
    const SCHED_GETAFFINITY: usize = 204;

    /// `sched_getaffinity(0, ..)`; all zero on failure.
    pub fn get() -> [u64; WORDS] {
        let mut mask = [0u64; WORDS];
        let ret: isize;
        // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes
        // into `mask` and touches no other memory.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SCHED_GETAFFINITY as isize => ret,
                in("rdi") 0usize,
                in("rsi") std::mem::size_of_val(&mask),
                in("rdx") mask.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if ret < 0 {
            [0; WORDS]
        } else {
            mask
        }
    }

    /// `sched_setaffinity(0, ..)`.
    pub fn set(mask: &[u64; WORDS]) -> bool {
        let ret: isize;
        // SAFETY: the kernel only reads `size_of_val(mask)` bytes from
        // `mask`.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SCHED_SETAFFINITY as isize => ret,
                in("rdi") 0usize,
                in("rsi") std::mem::size_of_val(mask),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, readonly),
            );
        }
        ret == 0
    }
}

/// Elsewhere placement is left to the scheduler.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub const WORDS: usize = 1;

    pub fn get() -> [u64; WORDS] {
        [0]
    }

    pub fn set(_: &[u64; WORDS]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_narrows_and_restores_the_mask() {
        let all = allowed();
        if all.is_empty() {
            return;
        }
        assert!(pin(&all[..1]));
        assert_eq!(allowed(), all[..1]);
        // A spawned thread inherits the mask.
        let child = std::thread::spawn(allowed).join().unwrap();
        assert_eq!(child, all[..1]);
        assert!(pin(&all));
        assert_eq!(allowed(), all);
        assert!(!pin(&[]));
    }
}
