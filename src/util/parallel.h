// Minimal data parallelism: ParallelFor over an index range with an atomic
// work counter. Used by the index builder (fragment extraction over
// graph-id ranges) and the verifier (per-candidate superposition search) —
// both embarrassingly parallel.
#ifndef PIS_UTIL_PARALLEL_H_
#define PIS_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace pis {

/// Runs fn(0..n-1) across `num_threads` threads (dynamic scheduling via an
/// atomic counter). `num_threads <= 1` runs inline on the caller's thread.
/// `fn` must be safe to call concurrently for distinct indices; exceptions
/// must not escape it.
void ParallelFor(size_t n, int num_threads, const std::function<void(size_t)>& fn);

/// Number of hardware threads, at least 1.
int HardwareThreads();

}  // namespace pis

#endif  // PIS_UTIL_PARALLEL_H_
