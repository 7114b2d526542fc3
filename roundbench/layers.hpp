// Per-layer measurements of the traced run. Every number is timed by
// the benchmark around public calls into one module, at the shapes and
// sizes the workload uses; no tracing is added inside src/.
#pragma once

#include <cstdint>

#include "roundbench/stats.hpp"
#include "roundbench/workloads.hpp"

namespace roundbench {

/// Tolerance of the layer-sum check: Σ per-layer fwd/bwd + loss + SGD
/// step must lie within this fraction of the whole-model train step.
inline constexpr double kLayerSumTolerance = 0.20;

/// nn and tensor metrics of every zoo model a workload uses (lenet5,
/// resnet, mlp), at batch 10, plus the layer-sum and mirror checks.
void measure_models(Runner& runner, const SpanLog& spans, Report& report);

/// fl.client, core, comm (codec, CRC, quantizer, TCP pair), metrics and
/// data metrics at `w`'s model, cohort (`cohort` sampled clients) and
/// data configuration.
void measure_workload_layers(const Workload& w, std::uint64_t seed,
                             std::size_t cohort, Runner& runner,
                             const SpanLog& spans, Report& report);

}  // namespace roundbench
