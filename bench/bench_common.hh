/**
 * @file
 * Kept for benchmark/nc_bench.cc, which reports the host CPU count
 * through this name. Paper artifacts are registry entries in
 * src/exp/figures.cc, run by netcrafter-sweep.
 */

#ifndef NETCRAFTER_BENCH_BENCH_COMMON_HH
#define NETCRAFTER_BENCH_BENCH_COMMON_HH

#include "src/exp/scheduler.hh"

namespace netcrafter::bench {

/** CPUs usable by this process (the affinity mask). */
using exp::hostCpus;

} // namespace netcrafter::bench

#endif // NETCRAFTER_BENCH_BENCH_COMMON_HH
