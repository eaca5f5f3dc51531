#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/azure.hpp"

/// Bounded-memory generation of on-disk trace arenas (DESIGN.md §13).
///
/// A million-function, 10^8-invocation day is ~800 MB of packed keys —
/// generating it through build_trace() would materialize every event in RAM
/// and sort them in one shot. generate_arena_file() instead works in chunks
/// of `chunk_functions` functions: each chunk's events are generated
/// in-RAM (the AzureTraceModel draws per-function RNG substreams, so a
/// subrange generates exactly its slice of the full trace), packed, sorted,
/// and spilled to a temporary chunk file; the sorted chunks are then k-way
/// merged into a final ilu-arena-v1 file through ArenaFileWriter. Peak
/// memory is O(chunk events + merge buffers), independent of total trace
/// size.
///
/// Determinism: a sorted merge of sorted chunks of u64 keys equals the
/// global sort write_arena_file performs (equal keys are indistinguishable
/// values), and the per-function RNG substreams make chunked generation
/// draw-for-draw identical to one build_trace() pass. The output file is
/// therefore byte-identical to
/// `write_arena_file(model.build_trace(fn_indices, rate_scale), path)` —
/// tests/test_arena_file.cpp locks this in.
namespace ilu {

struct ArenaGenConfig {
  /// Functions generated and sorted per in-RAM chunk. Smaller = less peak
  /// memory, more chunk files to merge.
  std::size_t chunk_functions = 8192;
  /// Directory for temporary chunk files; empty = alongside the output.
  std::string tmp_dir;
  /// Optional progress callback: (functions generated so far, events
  /// written to chunks so far). Called once per completed chunk.
  std::function<void(std::size_t, std::uint64_t)> progress;
};

struct ArenaGenStats {
  std::size_t functions = 0;
  std::uint64_t events = 0;
  std::size_t chunks = 0;
  std::uint64_t file_bytes = 0;
};

/// Generate the trace of `fn_indices` at `rate_scale` straight to an
/// ilu-arena-v1 file at `out_path`. Throws std::runtime_error on I/O
/// failure; temporary chunk files are removed on both success and failure.
ArenaGenStats generate_arena_file(const AzureTraceModel& model,
                                  const std::vector<std::size_t>& fn_indices,
                                  double rate_scale,
                                  const std::string& out_path,
                                  const ArenaGenConfig& cfg = {});

/// The rate_scale that makes the expected event count of `fn_indices` hit
/// `target_events`. Analytic (no generation pass): the model's diurnal and
/// activity modulations both have mean 1 over a day, so the expectation is
/// rate_scale × Σ expected_invocations. The realized count is one Poisson
/// draw per (function, minute) around that expectation — within ~0.01% at
/// 10^8 events.
double rate_scale_for_target_events(const AzureTraceModel& model,
                                    const std::vector<std::size_t>& fn_indices,
                                    double target_events);

}  // namespace ilu
