// Kernel parallelism: there is none. Every tensor/nn kernel runs
// serially on its calling thread; parallelism lives in one place, the
// round-level ThreadPool that fans out clients, evaluation batches and
// aggregation shards (DESIGN.md §13). A LeNet-scale client step is too
// small to split further without the fork/join costing more than it
// saves.
#pragma once

namespace fedcav {
class ThreadPool;
}  // namespace fedcav

namespace fedcav::ops {

/// No-op, kept for source compatibility with callers that used to attach
/// an intra-op kernel pool: kernels ignore `pool` and stay serial.
inline void set_kernel_pool(ThreadPool* /*pool*/) {}

}  // namespace fedcav::ops
