//! Runs a differential body once under every rect kernel this CPU can run,
//! inside one test process. Included by the suites whose answers and page
//! order must not depend on the kernel the process dispatched.

use buffered_rtrees::geom::{active_kernel, available_kernels, set_kernel, KernelKind};
use std::sync::{Mutex, PoisonError};

/// `set_kernel` is process-global: one kernel loop at a time per binary.
static PIN: Mutex<()> = Mutex::new(());

/// Pins each available kernel in turn, scalar first, runs `body` under it,
/// then restores the dispatched kernel. Every variant is bit-identical in
/// results and page order (what these suites prove), so a test of the same
/// binary that runs beside the loop cannot change outcome.
pub fn for_each_kernel(mut body: impl FnMut(&'static str)) {
    let _pin = PIN.lock().unwrap_or_else(PoisonError::into_inner);
    let dispatched = active_kernel();
    let mut visited = Vec::new();
    for kernel in available_kernels() {
        set_kernel(kernel).expect("an available kernel pins");
        assert_eq!(active_kernel(), kernel, "pinned {}", kernel.name());
        body(kernel.name());
        visited.push(kernel);
    }
    set_kernel(dispatched).expect("restoring the dispatched kernel");
    assert!(visited.starts_with(&[KernelKind::Scalar, KernelKind::Portable]));
    assert_eq!(
        visited.contains(&KernelKind::Avx2),
        KernelKind::Avx2.is_available(),
        "avx2 runs wherever the CPU has it"
    );
}
