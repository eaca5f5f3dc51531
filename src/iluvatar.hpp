#pragma once

/// Umbrella header: the full public API of the Ilúvatar/FaasCache
/// control-plane reproduction.
///
/// Layered exactly as DESIGN.md describes:
///   runtime/   deterministic (SimRuntime) and wall-clock (RealRuntime)
///              execution engines, the time-parallel ShardedRuntime
///              (conservative-window synchronization), + latency models
///   trace/     workloads: FunctionBench profiles, the Azure trace model,
///              load generators, the mmap'd on-disk trace file
///              (ilu-arena-v1) with bounded-memory chunked generation
///   containers container records, backends (containerd/docker/crun/null
///              latency profiles), netns pool
///   keepalive/ caching-based keep-alive: policies (TTL/LRU/FREQ/GD/LND/
///              HIST), the container pool and its trace replay, dynamic
///              provisioning
///   queueing/  invocation queue disciplines (FCFS/SJF/EEDF/RARE),
///              concurrency regulator (fixed/AIMD), bypass
///   obs/       observability: the always-on flight recorder (which also
///              carries the worker's Table 1 stages, and exports as a
///              Chrome trace) and log-bucketed histograms
///   core/      the Ilúvatar worker and its substrates (CPU model,
///              function characteristics)
///   baseline/  the OpenWhisk behavioural model (and FaasCache, via its
///              keep-alive policy knob)
///   lb/        CH-BL consistent hashing with bounded loads + cluster
///   exp/       parallel experiment sweep engine (one claim loop over
///              independent deterministic simulations, results in
///              submission order) and the live open-loop load harness

#include "baseline/openwhisk.hpp"
#include "common/types.hpp"
#include "containers/backend.hpp"
#include "containers/container.hpp"
#include "containers/netns_pool.hpp"
#include "common/characteristics.hpp"
#include "containers/cpu_model.hpp"
#include "core/energy.hpp"
#include "core/worker.hpp"
#include "exp/live_load.hpp"
#include "exp/sweep.hpp"
#include "keepalive/policy.hpp"
#include "keepalive/pool.hpp"
#include "keepalive/provisioner.hpp"
#include "keepalive/simulator.hpp"
#include "lb/chbl.hpp"
#include "lb/cluster.hpp"
#include "metrics/report.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "queueing/invocation_queue.hpp"
#include "queueing/queue_policy.hpp"
#include "queueing/regulator.hpp"
#include "runtime/real_runtime.hpp"
#include "runtime/sharded_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/timer_wheel.hpp"
#include "trace/arena_file.hpp"
#include "trace/arena_gen.hpp"
#include "trace/azure.hpp"
#include "trace/event_view.hpp"
#include "trace/function_profile.hpp"
#include "trace/loadgen.hpp"
#include "trace/workload.hpp"
#include "util/csv.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
