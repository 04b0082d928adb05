// Tests of the affine cost model extension (paper Section 6; NP-hard per
// Legrand-Yang-Casanova [20], so only fixed-scenario LPs and explicit
// selection strategies are provided).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "affine/selection.hpp"
#include "core/affine.hpp"
#include "core/fifo_optimal.hpp"
#include "platform/generators.hpp"
#include "util/rng.hpp"
#include "registry_shims.hpp"

namespace dlsched {
namespace {

using numeric::Rational;

std::vector<std::size_t> all_of(const StarPlatform& platform) {
  std::vector<std::size_t> ids(platform.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return ids;
}

TEST(Affine, ZeroLatenciesReduceToLinearModel) {
  Rng rng(221);
  const StarPlatform platform = gen::random_star(5, rng, 0.5);
  const auto linear = shim::fifo_optimal(platform);
  const auto affine =
      shim::affine_fifo(platform, all_of(platform), AffineCosts{});
  EXPECT_EQ(affine.throughput, linear.solution.throughput);
}

TEST(Affine, LatencyStrictlyReducesThroughput) {
  Rng rng(222);
  const StarPlatform platform = gen::random_star(5, rng, 0.5);
  const auto base =
      shim::affine_fifo(platform, all_of(platform), AffineCosts{});
  AffineCosts costs;
  costs.send_latency = 0.01;
  costs.return_latency = 0.01;
  const auto delayed = shim::affine_fifo(platform, all_of(platform), costs);
  ASSERT_TRUE(delayed.lp_feasible);
  EXPECT_LT(delayed.throughput, base.throughput);
}

TEST(Affine, SingleWorkerHandComputation) {
  // One worker, c = w = d = 1/4, latencies 1/8 each: the chain uses
  // 3 * 1/8 = 3/8 of the horizon, leaving 5/8 for 3/4 per unit ->
  // alpha = (5/8)/(3/4) = 5/6.
  const StarPlatform platform({Worker{0.25, 0.25, 0.25, "P1"}});
  AffineCosts costs;
  costs.send_latency = 0.125;
  costs.compute_latency = 0.125;
  costs.return_latency = 0.125;
  const auto result = shim::affine_fifo(platform, {0}, costs);
  ASSERT_TRUE(result.lp_feasible);
  EXPECT_EQ(result.throughput, Rational(5, 6));
}

TEST(Affine, ConstantsCanMakeAScenarioInfeasible) {
  const StarPlatform platform({Worker{0.25, 0.25, 0.25, "P1"},
                               Worker{0.25, 0.25, 0.25, "P2"}});
  AffineCosts costs;
  costs.send_latency = 0.4;  // two sends alone exceed T = 1 via (2b)
  costs.return_latency = 0.4;
  const auto result = shim::affine_fifo(platform, all_of(platform), costs);
  EXPECT_FALSE(result.lp_feasible);
  EXPECT_TRUE(result.throughput.is_zero());
}

TEST(Affine, SelectionDropsWorkersUnderHighLatency) {
  // With large per-message constants, enrolling everyone wastes horizon on
  // start-ups; the best subset is smaller.
  const StarPlatform platform({Worker{0.05, 0.2, 0.025, "a"},
                               Worker{0.05, 0.2, 0.025, "b"},
                               Worker{0.05, 0.2, 0.025, "c"},
                               Worker{0.05, 0.2, 0.025, "d"}});
  AffineCosts costs;
  costs.send_latency = 0.2;
  costs.return_latency = 0.2;
  const auto best = shim::affine_best_subset(platform, costs);
  EXPECT_LT(best.participants.size(), platform.size());
  EXPECT_EQ(best.subsets_tried, 15u);  // 2^4 - 1
}

TEST(Affine, SelectionKeepsEveryoneWithoutLatency) {
  Rng rng(223);
  const StarPlatform platform = gen::random_star(4, rng, 0.5, 0.1, 0.3,
                                                 0.5, 2.0);
  const auto best =
      shim::affine_best_subset(platform, AffineCosts{});
  EXPECT_EQ(best.participants.size(), platform.size());
}

TEST(Affine, SubsetGuardRejectsLargePlatforms) {
  Rng rng(224);
  const StarPlatform platform = gen::random_star(13, rng, 0.5);
  EXPECT_THROW(
      shim::affine_best_subset(platform, AffineCosts{}, 12),
      Error);
}

TEST(Affine, PruningAndWarmStartsNeverChangeTheWinner) {
  // The Gray-code scan with the one-port upper-bound pruning and the
  // warm-start chain must return exactly the plain enumeration's result:
  // same winner, same solution bit for bit, same subsets_tried ledger --
  // only the pruned/warm counters and pivot totals may differ.
  Rng rng(225);
  for (int iter = 0; iter < 6; ++iter) {
    const StarPlatform platform = gen::random_star(5, rng, 0.5, 0.05, 0.3);
    AffineCosts costs;
    costs.send_latency = rng.uniform(0.0, 0.08);
    costs.compute_latency = rng.uniform(0.0, 0.02);
    costs.return_latency = rng.uniform(0.0, 0.04);

    affine::AffineSubsetOptions plain;
    plain.warm_start = false;
    plain.prune = false;
    plain.screen = false;
    const auto baseline =
        affine::solve_affine_fifo_best_subset(platform, costs, plain);
    const auto tuned = affine::solve_affine_fifo_best_subset(
        platform, costs, affine::AffineSubsetOptions{});

    EXPECT_EQ(tuned.feasible, baseline.feasible);
    EXPECT_EQ(tuned.participants, baseline.participants);
    EXPECT_EQ(tuned.best.throughput, baseline.best.throughput);
    EXPECT_EQ(tuned.subsets_tried, baseline.subsets_tried);
    for (std::size_t i = 0; i < baseline.best.alpha.size(); ++i) {
      EXPECT_EQ(tuned.best.alpha[i], baseline.best.alpha[i]);
    }
    EXPECT_LE(tuned.subsets_pruned + tuned.subsets_screened,
              tuned.subsets_tried);
    EXPECT_EQ(baseline.subsets_pruned, 0u);
    EXPECT_EQ(baseline.subsets_screened, 0u);
    EXPECT_EQ(baseline.lp_warm_starts, 0u);
  }
}

class AffineSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AffineSweep, GreedyPrefixMatchesExhaustiveOnUniformWorkers) {
  // With identical workers the optimal subset is a prefix of any order, so
  // greedy must find the exhaustive optimum.
  Rng rng(GetParam());
  const double cw = rng.uniform(0.02, 0.08);
  std::vector<Worker> workers(6, Worker{cw, rng.uniform(0.1, 0.4),
                                        cw / 2.0, ""});
  const StarPlatform platform(workers);
  AffineCosts costs;
  costs.send_latency = rng.uniform(0.02, 0.1);
  costs.return_latency = costs.send_latency / 2.0;
  const auto greedy = shim::affine_greedy(platform, costs);
  const auto exact = shim::affine_best_subset(platform, costs);
  EXPECT_EQ(greedy.best.throughput, exact.best.throughput);
}

TEST_P(AffineSweep, GreedyNeverBeatsExhaustive) {
  Rng rng(GetParam() ^ 0xdead);
  const StarPlatform platform = gen::random_star(5, rng, 0.5, 0.05, 0.3);
  AffineCosts costs;
  costs.send_latency = rng.uniform(0.0, 0.05);
  costs.compute_latency = rng.uniform(0.0, 0.05);
  costs.return_latency = rng.uniform(0.0, 0.05);
  const auto greedy = shim::affine_greedy(platform, costs);
  const auto exact = shim::affine_best_subset(platform, costs);
  EXPECT_LE(greedy.best.throughput, exact.best.throughput);
}

TEST_P(AffineSweep, ThroughputIsMonotoneInLatency) {
  Rng rng(GetParam() ^ 0xbeef);
  const StarPlatform platform = gen::random_star(4, rng, 0.5);
  Rational previous = shim::affine_fifo(platform, all_of(platform),
                                        AffineCosts{})
                          .throughput;
  for (double latency : {0.005, 0.01, 0.02, 0.04}) {
    AffineCosts costs;
    costs.send_latency = latency;
    costs.return_latency = latency / 2.0;
    const auto result = shim::affine_fifo(platform, all_of(platform), costs);
    if (!result.lp_feasible) break;
    EXPECT_LE(result.throughput, previous);
    previous = result.throughput;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffineSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ----- edge cases through the registry path --------------------------------

const char* kAffineSolvers[] = {"affine_fifo", "affine_greedy",
                                "affine_subset", "affine_local_search"};

TEST(AffineEdge, ZeroLatencyAffineSolversMatchTheLinearFifoOptimum) {
  // The zero-latency reduction: with no constants, every affine solver is
  // just the linear FIFO LP with resource selection, so the objectives
  // agree with fifo_optimal bit for bit (exact rationals both sides).
  Rng rng(501);
  const StarPlatform platform = gen::random_star(5, rng, 0.5);
  const Rational linear = shim::fifo_optimal(platform).solution.throughput;
  for (const char* name : kAffineSolvers) {
    const SolveResult result =
        SolverRegistry::instance().run(name, shim::request_for(platform));
    EXPECT_EQ(result.solution.throughput, linear) << name;
    EXPECT_FALSE(result.replayed) << name;  // linear path, packed schedule
    EXPECT_FALSE(result.schedule.entries.empty()) << name;
  }
}

TEST(AffineEdge, InfeasibleConstantsPropagateACleanResult) {
  const StarPlatform platform({Worker{0.25, 0.25, 0.25, "P1"},
                               Worker{0.25, 0.25, 0.25, "P2"}});
  SolveRequest request = shim::request_for(platform);
  request.costs.send_latency = 0.6;  // one worker alone exceeds T = 1
  request.costs.return_latency = 0.6;
  for (const char* name : kAffineSolvers) {
    const SolveResult result =
        SolverRegistry::instance().run(name, request);  // must not throw
    EXPECT_FALSE(result.solution.lp_feasible) << name;
    EXPECT_TRUE(result.solution.throughput.is_zero()) << name;
    EXPECT_EQ(result.solution.alpha.size(), platform.size()) << name;
    EXPECT_TRUE(result.participants.empty()) << name;
    EXPECT_NE(result.notes.find("infeasible"), std::string::npos) << name;
    // The empty schedule is validator-clean, so a batch records ok rows.
    const auto outcomes = solve_batch_across_solvers(
        request, std::vector<std::string>{name}, 1);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes.front().ok) << name;
  }
}

TEST(AffineEdge, SingleWorkerDegenerateSubsets) {
  const StarPlatform platform({Worker{0.25, 0.25, 0.25, "only"}});
  SolveRequest request = shim::request_for(platform);
  request.costs.send_latency = 0.125;
  request.costs.compute_latency = 0.125;
  request.costs.return_latency = 0.125;
  for (const char* name : kAffineSolvers) {
    const SolveResult result = SolverRegistry::instance().run(name, request);
    ASSERT_TRUE(result.solution.lp_feasible) << name;
    EXPECT_EQ(result.solution.throughput, Rational(5, 6)) << name;
    EXPECT_EQ(result.participants, (std::vector<std::size_t>{0})) << name;
    EXPECT_TRUE(result.replayed) << name;
    EXPECT_LE(result.replay_rel_error, 1e-9) << name;
  }
}

TEST(AffineEdge, SolversCarryTheReplayCertificate) {
  Rng rng(502);
  const StarPlatform platform = gen::random_star(5, rng, 0.5, 0.05, 0.4);
  SolveRequest request = shim::request_for(platform);
  request.costs.send_latency = 0.03;
  request.costs.return_latency = 0.015;
  for (const char* name : kAffineSolvers) {
    const SolveResult result = SolverRegistry::instance().run(name, request);
    ASSERT_TRUE(result.solution.lp_feasible) << name;
    EXPECT_TRUE(result.replayed) << name;
    EXPECT_LE(result.replay_rel_error, 1e-9) << name;
    EXPECT_FALSE(result.participants.empty()) << name;
    EXPECT_TRUE(std::is_sorted(result.participants.begin(),
                               result.participants.end()))
        << name;
  }
}

TEST(AffineEdge, PerWorkerLatencyOverridesChangeTheLp) {
  Rng rng(503);
  const StarPlatform platform = gen::random_star(4, rng, 0.5, 0.05, 0.4);
  // A uniform override vector must match the global scalar exactly...
  AffineCosts global;
  global.send_latency = 0.02;
  AffineCosts uniform;
  uniform.send_latency_per_worker.assign(platform.size(), 0.02);
  const auto with_global =
      shim::affine_fifo(platform, all_of(platform), global);
  const auto with_uniform =
      shim::affine_fifo(platform, all_of(platform), uniform);
  EXPECT_EQ(with_global.throughput, with_uniform.throughput);
  // ...and a skewed vector must not.
  AffineCosts skewed;
  skewed.send_latency_per_worker = {0.08, 0.0, 0.0, 0.0};
  const auto with_skew =
      shim::affine_fifo(platform, all_of(platform), skewed);
  EXPECT_NE(with_skew.throughput, with_uniform.throughput);
}

TEST(AffineEdge, MultiRoundRefusesPerWorkerLatencies) {
  Rng rng(504);
  const StarPlatform platform = gen::random_star(3, rng, 0.5);
  SolveRequest request = shim::request_for(platform);
  request.costs.send_latency_per_worker.assign(platform.size(), 0.01);
  EXPECT_THROW((void)SolverRegistry::instance().run("multiround", request),
               Error);
}

// ----- Precision::Fast: the validated-double affine path -------------------

class AffineFast : public ::testing::TestWithParam<std::uint64_t> {};

// The fast-screened selection solvers promise a *bit-identical* outcome:
// the double LP only ranks candidates, and every candidate within the
// safety margin of the fast optimum is re-solved exactly before offers.
TEST_P(AffineFast, SelectionSolversAreBitIdenticalUnderFast) {
  Rng rng(GetParam());
  const StarPlatform platform = gen::random_star(5, rng, 0.5, 0.05, 0.4);
  SolveRequest exact_request = shim::request_for(platform);
  exact_request.costs.send_latency = rng.uniform(0.005, 0.05);
  exact_request.costs.return_latency = rng.uniform(0.005, 0.03);
  exact_request.costs.compute_latency = rng.uniform(0.0, 0.01);
  SolveRequest fast_request = exact_request;
  fast_request.precision = Precision::Fast;
  for (const char* name :
       {"affine_greedy", "affine_subset", "affine_local_search"}) {
    const SolveResult exact =
        SolverRegistry::instance().run(name, exact_request);
    const SolveResult fast =
        SolverRegistry::instance().run(name, fast_request);
    EXPECT_EQ(fast.solution.throughput, exact.solution.throughput) << name;
    EXPECT_EQ(fast.participants, exact.participants) << name;
    ASSERT_EQ(fast.solution.alpha.size(), exact.solution.alpha.size());
    for (std::size_t i = 0; i < exact.solution.alpha.size(); ++i) {
      EXPECT_EQ(fast.solution.alpha[i], exact.solution.alpha[i])
          << name << " alpha " << i;
    }
    EXPECT_EQ(fast.scenarios_tried, exact.scenarios_tried) << name;
    EXPECT_TRUE(fast.exact) << name;  // the winner is an exact LP solution
    if (fast.solution.lp_feasible) {
      // At least the winner itself lands in the margin set.
      EXPECT_GE(fast.lp_fallbacks, 1u) << name;
    }
    EXPECT_EQ(exact.lp_fallbacks, 0u) << name;
  }
}

// affine_fifo under Fast lifts the double LP solution and accepts it only
// when the realized timeline validates and the DES replay lands within the
// CI-gated certificate bound; otherwise it re-solves exactly.
TEST_P(AffineFast, FifoCarriesTheCertificateOrFallsBack) {
  Rng rng(GetParam() ^ 0xfa57);
  const StarPlatform platform = gen::random_star(6, rng, 0.5, 0.05, 0.4);
  SolveRequest request = shim::request_for(platform);
  request.costs.send_latency = 0.02;
  request.costs.return_latency = 0.01;
  request.precision = Precision::Fast;
  const SolveResult fast =
      SolverRegistry::instance().run("affine_fifo", request);
  ASSERT_TRUE(fast.solution.lp_feasible);
  EXPECT_TRUE(fast.replayed);
  EXPECT_LE(fast.replay_rel_error, 1e-9);
  if (fast.lp_fallbacks == 0) {
    EXPECT_FALSE(fast.exact);  // the validated-double result was accepted
  } else {
    EXPECT_TRUE(fast.exact);  // fell back to the exact LP
  }
  SolveRequest exact_request = request;
  exact_request.precision = Precision::Exact;
  const SolveResult exact =
      SolverRegistry::instance().run("affine_fifo", exact_request);
  EXPECT_TRUE(exact.exact);
  EXPECT_NEAR(fast.throughput(), exact.throughput(),
              1e-9 * std::max(1.0, exact.throughput()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffineFast,
                         ::testing::Values(71u, 72u, 73u, 74u, 75u, 76u));

TEST(AffineFastEdge, InfeasibleConstantsMatchUnderFast) {
  const StarPlatform platform({Worker{0.25, 0.25, 0.25, "P1"},
                               Worker{0.25, 0.25, 0.25, "P2"}});
  SolveRequest request = shim::request_for(platform);
  request.costs.send_latency = 0.6;  // one worker alone exceeds T = 1
  request.costs.return_latency = 0.6;
  request.precision = Precision::Fast;
  for (const char* name : kAffineSolvers) {
    const SolveResult result =
        SolverRegistry::instance().run(name, request);  // must not throw
    EXPECT_FALSE(result.solution.lp_feasible) << name;
    EXPECT_TRUE(result.solution.throughput.is_zero()) << name;
    // Infeasibility is always confirmed by the exact engine.
    EXPECT_GE(result.lp_fallbacks, 1u) << name;
  }
}

// ----- fast selection against the exact scans -----------------------------

/// The cost regimes of the differential: linear, scalar latencies and
/// per-worker latencies (the generator's draws, or random factors).
std::vector<AffineCosts> cost_regimes(const gen::GeneratedPlatform& generated,
                                      Rng& rng) {
  AffineCosts scalar;
  scalar.send_latency = 0.01;
  scalar.compute_latency = 0.002;
  scalar.return_latency = 0.005;
  AffineCosts per_worker;
  per_worker.compute_latency = 0.003;
  for (std::size_t i = 0; i < generated.platform.size(); ++i) {
    const double f = generated.has_latency_draws()
                         ? generated.latency_factor[i]
                         : rng.uniform(0.2, 3.0);
    per_worker.send_latency_per_worker.push_back(0.008 * f);
    per_worker.return_latency_per_worker.push_back(0.004 * f);
  }
  return {AffineCosts{}, scalar, per_worker};
}

/// Differences between a fast and an exact selection: feasibility,
/// participants, exact throughput, alpha and scenario.
std::size_t selection_mismatches(const affine::AffineSelectionResult& fast,
                                 const affine::AffineSelectionResult& exact) {
  if (fast.feasible != exact.feasible) return 1;
  if (!exact.feasible) return 0;
  std::size_t count = 0;
  count += fast.participants != exact.participants;
  count += fast.best.throughput != exact.best.throughput;
  count += fast.best.alpha != exact.best.alpha;
  count += fast.best.scenario.send_order != exact.best.scenario.send_order;
  count += fast.best.scenario.return_order != exact.best.scenario.return_order;
  return count;
}

TEST(AffineFastSelection, MatchesTheExactScansOnEveryGeneratorFamily) {
  // Every generator family at p = 1..10 and both z regimes, under linear,
  // scalar-latency and per-worker-latency costs: the fast subset, greedy
  // and local scans elect the exact scans' winner with the same solution.
  const gen::GeneratorRegistry& registry = gen::GeneratorRegistry::instance();
  Rng rng(20);
  std::size_t selections = 0;
  std::size_t mismatches = 0;
  for (const gen::GeneratorInfo& info : registry.infos()) {
    const auto accepts = [&](const std::string& key) {
      return std::find(info.params.begin(), info.params.end(), key) !=
             info.params.end();
    };
    for (std::size_t p = 1; p <= 10; ++p) {
      for (const double z : {0.35, 2.5}) {
        gen::GenParams params;
        if (accepts("p")) params["p"] = static_cast<double>(p);
        if (accepts("z")) params["z"] = z;
        if (accepts("z_num")) params["z_num"] = z < 1.0 ? 1.0 : 5.0;
        const gen::GeneratedPlatform generated =
            registry.make_generated(info.name, params, rng);
        const StarPlatform& platform = generated.platform;
        if (platform.size() > 10) continue;
        for (const AffineCosts& costs : cost_regimes(generated, rng)) {
          affine::AffineSubsetOptions exact_subset;
          affine::AffineSubsetOptions fast_subset;
          fast_subset.use_fast_lp = true;
          mismatches += selection_mismatches(
              affine::solve_affine_fifo_best_subset(platform, costs,
                                                    fast_subset),
              affine::solve_affine_fifo_best_subset(platform, costs,
                                                    exact_subset));
          mismatches += selection_mismatches(
              affine::solve_affine_fifo_greedy(platform, costs, true),
              affine::solve_affine_fifo_greedy(platform, costs, false));
          affine::AffineLocalSearchOptions fast_local;
          fast_local.use_fast_lp = true;
          mismatches += selection_mismatches(
              affine::solve_affine_fifo_local_search(platform, costs,
                                                     fast_local),
              affine::solve_affine_fifo_local_search(platform, costs, {}));
          selections += 3;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "over " << selections << " selections";
  EXPECT_GT(selections, 1500u);
}

TEST(AffineFastSelection, AddingAWorkerNeverLowersTheLinearOptimum) {
  // The ceiling stop rests on this: with linear costs, rho(S) <=
  // rho(S + w), so no subset beats the full worker set.
  Rng rng(2021);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t p = 2 + static_cast<std::size_t>(iter % 8);
    const StarPlatform platform =
        gen::random_star(p, rng, iter % 2 == 0 ? 0.35 : 2.5);
    const std::vector<std::size_t> order = rng.permutation(p);
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(p) - 1));
    std::vector<std::size_t> subset(order.begin(), order.begin() + k);
    const Rational before =
        solve_affine_fifo(platform, subset, AffineCosts{}).throughput;
    subset.push_back(order[k]);
    const Rational after =
        solve_affine_fifo(platform, subset, AffineCosts{}).throughput;
    EXPECT_LE(before, after) << "p " << p << " iter " << iter;
    EXPECT_LE(after,
              solve_affine_fifo(platform, all_of(platform), AffineCosts{})
                  .throughput);
  }
}

TEST(AffineFastSelection, LinearSubsetScanReSolvesAtMostThreeLps) {
  // Without latencies every superset of the optimal set ties with it; the
  // ceiling stop ends the exact re-solves at the first tie in scan order.
  Rng rng(2022);
  for (int iter = 0; iter < 8; ++iter) {
    const StarPlatform platform =
        gen::random_star(10, rng, iter % 2 == 0 ? 0.35 : 2.5);
    affine::AffineSubsetOptions options;
    options.use_fast_lp = true;
    const affine::AffineSelectionResult fast =
        affine::solve_affine_fifo_best_subset(platform, AffineCosts{}, options);
    ASSERT_TRUE(fast.feasible);
    EXPECT_LE(fast.exact_resolves, 3u) << "iter " << iter;
    EXPECT_GT(fast.subsets_pruned, 0u) << "iter " << iter;
  }
}

TEST(AffineFastEdge, ExactSolvesReportArenaTraffic) {
  // SolverRegistry::run snapshots the thread-local limb arena around every
  // solve; an exact affine LP must show big-integer buffer traffic.
  Rng rng(991);
  const StarPlatform platform = gen::random_star(6, rng, 0.5, 0.05, 0.4);
  SolveRequest request = shim::request_for(platform);
  request.costs.send_latency = 0.02;
  const SolveResult result =
      SolverRegistry::instance().run("affine_fifo", request);
  EXPECT_GT(result.arena_acquires, 0u);
  EXPECT_LE(result.arena_pool_hits, result.arena_acquires);
}

}  // namespace
}  // namespace dlsched
