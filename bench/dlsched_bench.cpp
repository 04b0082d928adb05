// dlsched_bench -- the one bench binary: every paper figure, ablation and
// microbenchmark is a named spec run through the experiment engine.
//
//   dlsched_bench --list-specs
//   dlsched_bench --list-generators
//   dlsched_bench --spec fig10 [--out BENCH_fig10.json] [--csv fig10.csv]
//   dlsched_bench --spec-file my_sweep.toml
//   dlsched_bench --all                       # every built-in spec
//   dlsched_bench --cache-stats [--cache-dir DIR]   # result-cache hygiene
//   dlsched_bench --spec smoke --workers 3    # 3 forked local TCP workers
//   dlsched_bench --spec smoke --coordinator 127.0.0.1:7601   # TCP board
//   dlsched_bench --worker tcp://127.0.0.1:7601               # TCP worker
//
// Options:
//   --out FILE        BENCH JSON artifact (default BENCH_<spec>.json)
//   --csv FILE        figure-data CSV (default <spec>.csv)
//   --no-json / --no-csv   suppress an artifact
//   --cache-dir DIR   result cache (default .dlsched_cache; --no-cache
//                     disables); overlapping sweeps re-use cached solves
//   --cache-max-bytes N    LRU-evict the cache down to N bytes post-run
//   --threads N       solve pool size (0 = hardware concurrency)
//   --quick           shrink axes (CI smoke: same shape, small grid)
//   --seed N          override the spec's seed block
//   --repetitions N   override instances per grid point
//   --workers N       fork N local TCP worker processes that lease
//                     shards from a coordinator (grid specs; needs the
//                     cache); --workers auto[:MAX] autoscales the fleet
//                     to the backlog.  The coordinator listens on
//                     127.0.0.1:0 unless --coordinator names an address
//   --coordinator HOST:PORT   own the claim board over TCP on this
//                     address; without --workers it waits for external
//                     --worker processes
//   --lease-ttl S     shard lease TTL before the coordinator reassigns
//                     an unrenewed lease (accepted: 0.05 to 3600 seconds)
//   --trace FILE      record obs spans across every process of the run
//                     (solve/batch/cache/shard/lease/wire) and merge
//                     them into one Chrome trace_event JSON timeline --
//                     load it in Perfetto or about:tracing.  Workers
//                     ship their spans back automatically (FragmentPush
//                     trace section); the run summary gains a per-phase
//                     attribution table and the BENCH JSON a "phases"
//                     trailer.  Off by default at zero recording cost.
//   --worker tcp://HOST:PORT  run as a remote TCP worker: lease shards,
//                     solve, stream fragments back (no spec needed;
//                     options: --worker-id ID, --threads N,
//                     --scratch-dir DIR, and the chaos hook
//                     --abandon-after N: after N accepted shards, take
//                     one more lease and die holding it -- deterministic
//                     crash-recovery drills)
//
// Replaces the 15 former bench/*.cpp binaries; see README "Running
// experiments" for the spec -> paper figure table.  The driver itself
// lives in src/experiments/bench_driver.cpp and is also embedded in
// dlsched_cli as the `bench` subcommand.
#include <iostream>

#include "experiments/bench_driver.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dlsched;
  const CliArgs args =
      CliArgs::parse(argc, argv, experiments::bench_flags());
  try {
    return experiments::bench_main(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
