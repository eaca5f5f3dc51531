#pragma once

#include <cstdint>
#include <vector>

#include "trace/azure.hpp"

namespace perfbench {

/// The benchmark's own trace generator over the Azure model. The function
/// population and the sample are the model's (built from the model's default
/// seed, the population the paper's figures use), so every seed replays the
/// same kind of workload; `seed` draws the arrivals. For each function and
/// minute of [start_minute, start_minute + minutes) of the model's day, the
/// expected count rate x diurnal x activity is rounded up or down at random
/// in proportion to its fraction, and the minute's invocations are spaced
/// evenly over it (the model's replay rule) from a random phase. The model
/// itself draws Poisson counts; with those, the seed alone moved a loaded
/// cluster between calm and a cold-start storm, so the benchmark keeps the
/// load level fixed and lets the seed move single invocations. With
/// `target_rps` > 0 all rates are scaled so the expected total is
/// target_rps per second; 0 keeps the natural rates.
ilu::Trace azure_trace(const ilu::AzureTraceModel& model,
                       const std::vector<std::size_t>& fn_indices,
                       double start_minute, double minutes, double target_rps,
                       std::uint64_t seed);

}  // namespace perfbench
