#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>

#include "core/scenario.hpp"
#include "core/scenario_lp.hpp"
#include "platform/generators.hpp"
#include "schedule/validator.hpp"
#include "util/error.hpp"
#include "util/fan_out.hpp"
#include "util/rng.hpp"
#include "registry_shims.hpp"

namespace dlsched {
namespace {

using numeric::Rational;

StarPlatform platform3() {
  return StarPlatform({Worker{0.1, 0.2, 0.05, "P1"},
                       Worker{0.2, 0.3, 0.1, "P2"},
                       Worker{0.3, 0.1, 0.15, "P3"}});
}

// ----------------------------------------------------------------- scenario --

TEST(Scenario, FifoAndLifoConstruction) {
  const std::vector<std::size_t> order{2, 0, 1};
  const Scenario fifo = Scenario::fifo(order);
  EXPECT_TRUE(fifo.is_fifo());
  EXPECT_FALSE(fifo.is_lifo());
  const Scenario lifo = Scenario::lifo(order);
  EXPECT_TRUE(lifo.is_lifo());
  EXPECT_EQ(lifo.return_order, (std::vector<std::size_t>{1, 0, 2}));
}

TEST(Scenario, SingleWorkerIsBothFifoAndLifo) {
  const std::vector<std::size_t> order{0};
  EXPECT_TRUE(Scenario::fifo(order).is_lifo());
  EXPECT_TRUE(Scenario::lifo(order).is_fifo());
}

TEST(Scenario, GeneralRejectsMismatchedSets) {
  const std::vector<std::size_t> a{0, 1};
  const std::vector<std::size_t> b{0, 2};
  EXPECT_THROW(Scenario::general(a, b), Error);
}

TEST(Scenario, CheckRejectsOutOfRangeAndDuplicates) {
  const StarPlatform platform = platform3();
  Scenario s = Scenario::fifo(std::vector<std::size_t>{0, 5});
  EXPECT_THROW(s.check(platform), Error);
  Scenario dup = Scenario::fifo(std::vector<std::size_t>{0, 0});
  EXPECT_THROW(dup.check(platform), Error);
}

TEST(Scenario, DescribeTagsFifoAndLifo) {
  const std::vector<std::size_t> order{0, 1};
  EXPECT_NE(Scenario::fifo(order).describe().find("[FIFO]"),
            std::string::npos);
  EXPECT_NE(Scenario::lifo(order).describe().find("[LIFO]"),
            std::string::npos);
}

// ---------------------------------------------------------------- LP shape --

TEST(ScenarioLp, ModelHasPaperDimensions) {
  // q alpha variables and q + 1 rows.  The paper's q idle variables x_i
  // are the chain rows' slack (not explicit columns; see scenario_lp.hpp),
  // and the paper's 3q + 1 constraint count includes the non-negativity
  // bounds, which live in the variable domain here.
  const StarPlatform platform = platform3();
  const auto lp = build_scenario_lp(
      platform, Scenario::fifo(std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(lp.num_variables(), 3u);
  EXPECT_EQ(lp.num_constraints(), 4u);  // 3 chains + one-port
}

TEST(ScenarioLp, SingleWorkerThroughputIsChainInverse) {
  // One worker: rho = 1 / (c + w + d) (chain constraint binds; the one-port
  // constraint c + d <= 1 is looser).
  const StarPlatform platform({Worker{0.25, 0.5, 0.125, "P1"}});
  const auto sol =
      shim::scenario_exact(platform, Scenario::fifo(std::vector<std::size_t>{0}));
  EXPECT_EQ(sol.throughput, Rational(8, 7));  // 1 / 0.875
}

TEST(ScenarioLp, OnePortBoundBindsWhenComputationIsFree) {
  // Nearly free computation: throughput approaches 1 / (c + d) and the
  // one-port constraint becomes the bottleneck.
  const StarPlatform platform({Worker{0.5, 1e-9, 0.5, "P1"},
                               Worker{0.5, 1e-9, 0.5, "P2"}});
  const auto sol = shim::scenario_exact(
      platform, Scenario::fifo(std::vector<std::size_t>{0, 1}));
  EXPECT_NEAR(sol.throughput.to_double(), 1.0, 1e-6);
}

TEST(ScenarioLp, ThroughputRespectsOnePortBudgetExactly) {
  Rng rng(3);
  const StarPlatform platform = gen::random_star(4, rng, 0.5);
  const auto sol = shim::scenario_exact(
      platform, Scenario::fifo(platform.order_by_c()));
  Rational comm_budget;
  for (std::size_t i = 0; i < platform.size(); ++i) {
    comm_budget += sol.alpha[i] * (Rational::from_double(platform.worker(i).c) +
                                   Rational::from_double(platform.worker(i).d));
  }
  EXPECT_LE(comm_budget, Rational(1));
}

TEST(ScenarioLp, IdleVariablesNeverChangeTheOptimum) {
  // The x_i are pure slack: dropping them (by solving a scenario whose
  // idle variables are forced to zero via the packed construction) yields
  // the same throughput.  We verify by checking the realized schedule's
  // load equals the LP objective.
  Rng rng(4);
  const StarPlatform platform = gen::random_star(5, rng, 0.5);
  const auto sol =
      shim::scenario_exact(platform, Scenario::fifo(platform.order_by_c()));
  const Schedule schedule = realize_schedule(platform, sol);
  EXPECT_NEAR(schedule.total_load(), sol.throughput.to_double(), 1e-9);
}

TEST(ScenarioLp, BuildersRejectMalformedScenariosLikeCheck) {
  // The builders check a scenario while indexing its positions; each
  // fault must still throw, with Scenario::check's message.
  const StarPlatform platform = platform3();
  Scenario out_of_range = Scenario::fifo(std::vector<std::size_t>{0, 5});
  Scenario twice = Scenario::fifo(std::vector<std::size_t>{1, 1});
  Scenario unsent = Scenario::fifo(std::vector<std::size_t>{0, 1});
  unsent.return_order = {0, 2};
  Scenario short_returns = Scenario::fifo(std::vector<std::size_t>{0, 1});
  short_returns.return_order = {0};
  for (const Scenario& scenario :
       {out_of_range, twice, unsent, short_returns}) {
    std::string message;
    try {
      scenario.check(platform);
    } catch (const Error& e) {
      message = e.what();
    }
    ASSERT_FALSE(message.empty());
    for (int path = 0; path < 3; ++path) {
      try {
        if (path == 0) (void)build_scenario_lp(platform, scenario);
        if (path == 1) (void)build_scenario_lp_double(platform, scenario);
        if (path == 2) (void)solve_scenario_double(platform, scenario);
        ADD_FAILURE() << "path " << path << " accepted " << message;
      } catch (const Error& e) {
        EXPECT_STREQ(e.what(), message.c_str()) << "path " << path;
      }
    }
  }
}

TEST(ScenarioLp, DoubleSolverMatchesExact) {
  Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    const StarPlatform platform = gen::random_star(5, rng, 0.5);
    const Scenario scenario = Scenario::fifo(platform.order_by_c());
    const auto exact = shim::scenario_exact(platform, scenario);
    const auto approx = shim::scenario_double(platform, scenario);
    EXPECT_NEAR(exact.throughput.to_double(), approx.throughput, 1e-7);
    for (std::size_t w = 0; w < platform.size(); ++w) {
      EXPECT_NEAR(exact.alpha[w].to_double(), approx.alpha[w], 1e-6);
    }
  }
}

TEST(ScenarioLp, EnrolledListsPositiveLoadsOnly) {
  // A grossly slow worker is dropped by resource selection.
  const StarPlatform platform({Worker{0.1, 0.1, 0.05, "fast"},
                               Worker{100.0, 100.0, 50.0, "slow"}});
  const auto sol = shim::scenario_exact(
      platform, Scenario::fifo(platform.order_by_c()));
  const auto used = sol.enrolled();
  ASSERT_EQ(used.size(), 1u);
  EXPECT_EQ(used[0], 0u);
}

// ----------------------------------------------- realized schedules validate --

class ScenarioRealization : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioRealization, FifoLifoAndShuffledScenariosAllValidate) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 5; ++iter) {
    const double z = rng.uniform(0.1, 0.9);
    const StarPlatform platform = gen::random_star(5, rng, z);
    const auto order = rng.permutation(platform.size());

    for (const Scenario& scenario :
         {Scenario::fifo(order), Scenario::lifo(order),
          Scenario::general(order, rng.permutation(platform.size()))}) {
      const auto sol = shim::scenario_exact(platform, scenario);
      EXPECT_GT(sol.throughput, Rational(0));
      const Schedule schedule = realize_schedule(platform, sol);
      const ValidationReport report = validate(platform, schedule);
      EXPECT_TRUE(report.ok) << scenario.describe() << ": "
                             << (report.violations.empty()
                                     ? ""
                                     : report.violations.front());
    }
  }
}

TEST_P(ScenarioRealization, ThroughputScalesLinearlyWithHorizon) {
  Rng rng(GetParam() ^ 0xbeef);
  const StarPlatform platform = gen::random_star(4, rng, 0.5);
  const auto sol =
      shim::scenario_exact(platform, Scenario::fifo(platform.order_by_c()));
  const Schedule unit = realize_schedule(platform, sol, 1.0);
  const Schedule tripled = realize_schedule(platform, sol, 3.0);
  EXPECT_NEAR(tripled.total_load(), 3.0 * unit.total_load(), 1e-9);
  EXPECT_TRUE(validate(platform, tripled).ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioRealization,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ------------------------------------------------ the dense double builder --

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The reference: the exact model, rounded by `densify`.
lp::DenseLp<double> densified(const StarPlatform& platform,
                              const Scenario& scenario,
                              const LpOptions& options) {
  return build_scenario_lp(platform, scenario, options).densify<double>();
}

/// Entries of `got` whose bits differ from `want` (objective, right-hand
/// sides, coefficients); a shape or relation difference counts as one.
std::size_t bit_mismatches(const lp::DenseLp<double>& got,
                           const lp::DenseLp<double>& want) {
  if (got.num_vars != want.num_vars || got.num_rows() != want.num_rows() ||
      got.relations != want.relations) {
    return 1;
  }
  std::size_t count = 0;
  for (std::size_t j = 0; j < want.num_vars; ++j) {
    count += bits(got.objective[j]) != bits(want.objective[j]);
  }
  for (std::size_t i = 0; i < want.num_rows(); ++i) {
    count += bits(got.rhs[i]) != bits(want.rhs[i]);
    for (std::size_t j = 0; j < want.num_vars; ++j) {
      count += bits(got.row(i)[j]) != bits(want.row(i)[j]);
    }
  }
  return count;
}

/// `solve_scenario_double` answers exactly as a double simplex over the
/// densified Rational model: same feasibility, throughput and alpha bits
/// and pivot count.
void expect_same_double_solve(const StarPlatform& platform,
                              const Scenario& scenario,
                              const LpOptions& options) {
  const ScenarioSolutionD got =
      solve_scenario_double(platform, scenario, options);
  const lp::DenseLp<double> model = densified(platform, scenario, options);
  const lp::Solution<double> want = lp::Simplex<double>(model).solve();
  ASSERT_EQ(got.lp_feasible, want.status == lp::Status::Optimal);
  if (!got.lp_feasible) return;
  EXPECT_EQ(bits(got.throughput), bits(want.objective));
  EXPECT_EQ(got.lp_pivots, want.pivots);
  for (std::size_t k = 0; k < scenario.size(); ++k) {
    EXPECT_EQ(bits(got.alpha[scenario.send_order[k]]),
              bits(std::max(0.0, want.values[k])))
        << "sigma_1 position " << k;
  }
}

/// The LP variants each scenario is built under: both port models, with
/// no latencies, the scalar latencies, latencies large enough to make most
/// scenarios infeasible, and per-worker latencies.
std::vector<LpOptions> lp_variants(const gen::GeneratedPlatform& generated,
                                   Rng& rng) {
  std::vector<double> factor = generated.latency_factor;
  if (factor.empty()) {
    for (std::size_t i = 0; i < generated.platform.size(); ++i) {
      factor.push_back(rng.uniform(0.2, 3.0));
    }
  }
  LpOptions scalar;
  scalar.send_latency = 0.002;
  scalar.compute_latency = 0.01;
  scalar.return_latency = 0.0013;
  LpOptions infeasible;
  infeasible.send_latency = 0.15;
  infeasible.compute_latency = 0.3;
  infeasible.return_latency = 0.1;
  LpOptions per_worker;
  per_worker.compute_latency = 0.004;
  for (const double f : factor) {
    per_worker.send_latencies.push_back(0.003 * f);
    per_worker.return_latencies.push_back(0.0017 * f);
  }
  std::vector<LpOptions> variants;
  for (const bool one_port : {true, false}) {
    for (LpOptions options : {LpOptions{}, scalar, infeasible, per_worker}) {
      options.one_port = one_port;
      variants.push_back(std::move(options));
    }
  }
  return variants;
}

TEST(ScenarioLpDouble, MatchesTheDensifiedRationalModelBitForBit) {
  // Every generator family at p = 1..16 and both z regimes, under FIFO,
  // LIFO, a random general scenario and a random-subset FIFO scenario
  // (the affine screens' shape), in every LP variant.
  const gen::GeneratorRegistry& registry = gen::GeneratorRegistry::instance();
  Rng rng(19);
  std::size_t lps = 0;
  std::size_t infeasible = 0;
  std::size_t mismatches = 0;
  for (const gen::GeneratorInfo& info : registry.infos()) {
    const auto accepts = [&](const std::string& key) {
      return std::find(info.params.begin(), info.params.end(), key) !=
             info.params.end();
    };
    for (std::size_t p = 1; p <= 16; ++p) {
      for (const double z : {0.35, 2.5}) {
        gen::GenParams params;
        if (accepts("p")) params["p"] = static_cast<double>(p);
        if (accepts("z")) params["z"] = z;
        if (accepts("z_num")) params["z_num"] = z < 1.0 ? 1.0 : 5.0;
        if (accepts("lat_hi")) {
          params["lat_lo"] = 0.5;
          params["lat_hi"] = 1.5;
        }
        const gen::GeneratedPlatform generated =
            registry.make_generated(info.name, params, rng);
        const StarPlatform& platform = generated.platform;
        const std::size_t n = platform.size();
        const std::vector<std::size_t> order = rng.permutation(n);
        const std::vector<std::size_t> subset(
            order.begin(),
            order.begin() + rng.uniform_int(1, static_cast<std::int64_t>(n)));
        for (const Scenario& scenario :
             {Scenario::fifo(order), Scenario::lifo(order),
              Scenario::general(order, rng.permutation(n)),
              Scenario::fifo(subset)}) {
          for (const LpOptions& options : lp_variants(generated, rng)) {
            const lp::DenseLp<double> model =
                densified(platform, scenario, options);
            mismatches += bit_mismatches(
                build_scenario_lp_double(platform, scenario, options), model);
            infeasible += lp::Simplex<double>(model).solve().status ==
                          lp::Status::Infeasible;
            ++lps;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "over " << lps << " LPs";
  EXPECT_GT(infeasible, 0u);  // the latency draws reach infeasible LPs
}

TEST(ScenarioLpDouble, SolvesExactlyLikeTheDensifiedModel) {
  Rng rng(1919);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t p = 1 + static_cast<std::size_t>(iter % 12);
    const StarPlatform platform =
        gen::random_star(p, rng, iter % 2 == 0 ? 0.4 : 1.7);
    const std::vector<std::size_t> order = rng.permutation(p);
    for (const LpOptions& options :
         lp_variants(gen::GeneratedPlatform(platform), rng)) {
      expect_same_double_solve(
          platform, Scenario::general(order, rng.permutation(p)), options);
    }
  }
}

TEST(ScenarioLpDouble, OnePortColumnKeepsTheExactSumOfAWideGapPair) {
  // c + d is a multiple of 2^-90 near 1.23: a 91-bit numerator, which
  // Rational::to_double rounds digit by digit, one ulp below the double
  // add.  A builder that added c + d in double would miss it.
  const double c = 0x1.3b1419a7615b1p+0;
  const double d = 0x1.6b38284502674p-40;
  ASSERT_EQ(bits(c + d), bits(0x1.3b1419a762c65p+0));
  // Light computation, so the one-port row binds at the optimum.
  const StarPlatform platform({Worker{c, 0.01, d, "P1"},
                               Worker{0.5, 0.02, 0.25, "P2"},
                               Worker{c, 0.03, d, "P3"}});
  const Scenario scenario = Scenario::fifo(std::vector<std::size_t>{0, 1, 2});
  const lp::DenseLp<double> want = densified(platform, scenario, {});
  ASSERT_EQ(want.num_rows(), 4u);
  EXPECT_EQ(bits(want.row(3)[0]), bits(0x1.3b1419a762c64p+0));
  EXPECT_NE(bits(want.row(3)[0]), bits(c + d));
  EXPECT_EQ(bit_mismatches(build_scenario_lp_double(platform, scenario), want),
            0u);
  expect_same_double_solve(platform, scenario, {});
  const ScenarioSolutionD solution = solve_scenario_double(platform, scenario);
  const double budget = want.row(3)[0] * solution.alpha[0] +
                        want.row(3)[1] * solution.alpha[1] +
                        want.row(3)[2] * solution.alpha[2];
  EXPECT_NEAR(budget, 1.0, 1e-12);  // the one-port row is tight
}

/// The chain rows' right-hand sides a builder would get by adding the
/// latency constants in double: term by term in the exact model's order,
/// or from running prefix (sends) and suffix (returns) sums.
std::vector<double> double_sum_rhs(const Scenario& scenario,
                                   const LpOptions& options,
                                   bool in_term_order) {
  const std::size_t q = scenario.size();
  std::vector<double> sent(q);
  std::vector<double> returned(q);
  double total = 0.0;
  for (std::size_t k = 0; k < q; ++k) {
    total += options.send_latency_for(scenario.send_order[k]);
    sent[k] = total;
  }
  total = 0.0;
  for (std::size_t r = q; r-- > 0;) {
    total += options.return_latency_for(scenario.return_order[r]);
    returned[r] = total;
  }
  std::vector<double> rhs;
  for (std::size_t k = 0; k < q; ++k) {
    const std::size_t mine = static_cast<std::size_t>(
        std::find(scenario.return_order.begin(), scenario.return_order.end(),
                  scenario.send_order[k]) -
        scenario.return_order.begin());
    if (!in_term_order) {
      rhs.push_back(1.0 - (sent[k] + options.compute_latency + returned[mine]));
      continue;
    }
    double constants = 0.0;
    for (std::size_t j = 0; j <= k; ++j) {
      constants += options.send_latency_for(scenario.send_order[j]);
    }
    constants += options.compute_latency;
    for (std::size_t r = mine; r < q; ++r) {
      constants += options.return_latency_for(scenario.return_order[r]);
    }
    rhs.push_back(1.0 - constants);
  }
  return rhs;
}

TEST(ScenarioLpDouble, AffineRightHandSidesAreTheExactConstantsRoundedOnce) {
  // On this 16-worker general scenario, both ways of summing the latency
  // constants in double round some chain row's 1 - constants differently
  // from the exact sum, for the scalar latencies and the per-worker draw.
  Rng rng(2006);
  const StarPlatform platform = gen::random_star(16, rng, 0.6);
  const std::vector<std::size_t> send_order = rng.permutation(16);
  const std::vector<std::size_t> return_order = rng.permutation(16);
  const Scenario scenario = Scenario::general(send_order, return_order);
  LpOptions scalar;
  scalar.send_latency = 0.002;
  scalar.compute_latency = 0.01;
  scalar.return_latency = 0.0013;
  LpOptions per_worker;
  per_worker.compute_latency = 0.01;
  for (const double f : gen::latency_factors(platform, rng, 0.5, 2.0, 0.8)) {
    per_worker.send_latencies.push_back(0.002 * f);
    per_worker.return_latencies.push_back(0.0013 * f);
  }
  for (const LpOptions& options : {scalar, per_worker}) {
    const lp::DenseLp<double> want = densified(platform, scenario, options);
    EXPECT_EQ(
        bit_mismatches(build_scenario_lp_double(platform, scenario, options),
                       want),
        0u);
    for (const bool in_term_order : {true, false}) {
      const std::vector<double> summed =
          double_sum_rhs(scenario, options, in_term_order);
      std::size_t differ = 0;
      for (std::size_t k = 0; k < summed.size(); ++k) {
        differ += bits(summed[k]) != bits(want.rhs[k]);
      }
      EXPECT_GT(differ, 0u) << "double sums (in_term_order = "
                            << in_term_order << ") match every row";
    }
    expect_same_double_solve(platform, scenario, options);
  }
}

TEST(ScenarioLpDouble, ConstantsBelowTheDoubleDenominatorRangeMatchToo) {
  // A constant whose reduced denominator passes 2^1023 takes
  // Rational::to_double's scaled path; the builder must read it back the
  // same way.
  const double tiny = 0x1.0000000000001p-1000;
  const StarPlatform platform({Worker{tiny, 0.5, tiny, "P1"},
                               Worker{0.25, 0x1.8p-1020, 0.0, "P2"}});
  const Scenario scenario = Scenario::fifo(std::vector<std::size_t>{0, 1});
  for (const bool one_port : {true, false}) {
    LpOptions options;
    options.one_port = one_port;
    EXPECT_EQ(
        bit_mismatches(build_scenario_lp_double(platform, scenario, options),
                       densified(platform, scenario, options)),
        0u);
    expect_same_double_solve(platform, scenario, options);
  }
}

// ------------------------------------ the double solve and its workspace --

/// Folds `word` into the running digest `h`.
std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return h ^ (word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Everything `solve_scenario_double` returns: feasibility, throughput and
/// alpha bits, the scenario and the pivot count.
std::uint64_t fold_solution(std::uint64_t h, const ScenarioSolutionD& s) {
  h = fold(h, s.lp_feasible ? 1 : 0);
  h = fold(h, bits(s.throughput));
  for (const double a : s.alpha) h = fold(h, bits(a));
  for (const std::size_t w : s.scenario.send_order) h = fold(h, w);
  for (const std::size_t w : s.scenario.return_order) h = fold(h, w);
  return fold(h, s.lp_pivots);
}

TEST(ScenarioLpDouble, SolvesEveryScenarioToThePinnedBits) {
  // solve_scenario_double over every generator family at p = 1..16 and
  // both z regimes, under FIFO, LIFO, a random general and a random-subset
  // FIFO scenario, in both port models with no, scalar, infeasible and
  // per-worker latencies.  The digest was recorded with the solver that
  // rebuilt its tableau as one vector per row for every solve.
  const gen::GeneratorRegistry& registry = gen::GeneratorRegistry::instance();
  Rng rng(2323);
  std::uint64_t digest = 0;
  std::size_t lps = 0;
  std::size_t infeasible = 0;
  for (const gen::GeneratorInfo& info : registry.infos()) {
    const auto accepts = [&](const std::string& key) {
      return std::find(info.params.begin(), info.params.end(), key) !=
             info.params.end();
    };
    for (std::size_t p = 1; p <= 16; ++p) {
      for (const double z : {0.35, 2.5}) {
        gen::GenParams params;
        if (accepts("p")) params["p"] = static_cast<double>(p);
        if (accepts("z")) params["z"] = z;
        if (accepts("z_num")) params["z_num"] = z < 1.0 ? 1.0 : 5.0;
        if (accepts("lat_hi")) {
          params["lat_lo"] = 0.5;
          params["lat_hi"] = 1.5;
        }
        const gen::GeneratedPlatform generated =
            registry.make_generated(info.name, params, rng);
        const StarPlatform& platform = generated.platform;
        const std::size_t n = platform.size();
        const std::vector<std::size_t> order = rng.permutation(n);
        const std::vector<std::size_t> subset(
            order.begin(),
            order.begin() + rng.uniform_int(1, static_cast<std::int64_t>(n)));
        for (const Scenario& scenario :
             {Scenario::fifo(order), Scenario::lifo(order),
              Scenario::general(order, rng.permutation(n)),
              Scenario::fifo(subset)}) {
          for (const LpOptions& options : lp_variants(generated, rng)) {
            const ScenarioSolutionD solution =
                solve_scenario_double(platform, scenario, options);
            digest = fold_solution(digest, solution);
            infeasible += !solution.lp_feasible;
            ++lps;
          }
        }
      }
    }
  }
  EXPECT_EQ(lps, 11264u);
  EXPECT_GT(infeasible, 0u);
  EXPECT_EQ(digest, 0x5c0d8f1b49ecdf3bULL);
}

/// One double solve of the interleaved sequence below.
struct DoubleCase {
  StarPlatform platform;
  Scenario scenario;
  LpOptions options;
};

void expect_same_solution(const ScenarioSolutionD& got,
                          const ScenarioSolutionD& want,
                          const std::string& where) {
  EXPECT_EQ(got.lp_feasible, want.lp_feasible) << where;
  EXPECT_EQ(bits(got.throughput), bits(want.throughput)) << where;
  EXPECT_EQ(got.lp_pivots, want.lp_pivots) << where;
  EXPECT_EQ(got.scenario.send_order, want.scenario.send_order) << where;
  EXPECT_EQ(got.scenario.return_order, want.scenario.return_order) << where;
  ASSERT_EQ(got.alpha.size(), want.alpha.size()) << where;
  for (std::size_t i = 0; i < want.alpha.size(); ++i) {
    EXPECT_EQ(bits(got.alpha[i]), bits(want.alpha[i])) << where << " i=" << i;
  }
}

TEST(ScenarioLpDouble, AReusedWorkspaceAnswersLikeAFreshThread) {
  // A thread's workspace shrinks and grows with each LP: p = 16, then 2,
  // then 16; a two-port LP between one-port ones; an infeasible affine LP
  // between feasible ones.  Solved in sequence on one thread, and on pool
  // lanes, every answer must equal a solve on a thread that has never
  // solved anything.
  Rng rng(4242);
  LpOptions two_port;
  two_port.one_port = false;
  LpOptions affine;
  affine.send_latency = 0.002;
  affine.compute_latency = 0.01;
  affine.return_latency = 0.0013;
  LpOptions infeasible;
  infeasible.send_latency = 0.15;
  infeasible.compute_latency = 0.3;
  infeasible.return_latency = 0.1;
  std::vector<DoubleCase> cases;
  for (const std::size_t p : {16u, 2u, 16u, 5u, 12u, 1u, 12u, 16u, 3u}) {
    const StarPlatform platform = gen::random_star(p, rng, 0.8);
    const Scenario scenario =
        Scenario::general(rng.permutation(p), rng.permutation(p));
    for (const LpOptions& options :
         {LpOptions{}, two_port, affine, infeasible, LpOptions{}}) {
      cases.push_back({platform, scenario, options});
    }
  }
  auto solve = [&](std::size_t i) {
    return solve_scenario_double(cases[i].platform, cases[i].scenario,
                                 cases[i].options);
  };
  std::vector<ScenarioSolutionD> fresh(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::thread([&, i] { fresh[i] = solve(i); }).join();
  }
  std::size_t feasible = 0;
  for (const ScenarioSolutionD& solution : fresh) feasible += solution.lp_feasible;
  EXPECT_GT(feasible, 0u);
  EXPECT_LT(feasible, cases.size());

  std::vector<ScenarioSolutionD> sequence(cases.size());
  std::thread([&] {
    for (std::size_t i = 0; i < cases.size(); ++i) sequence[i] = solve(i);
  }).join();
  std::vector<ScenarioSolutionD> pooled(cases.size());
  fan_out(cases.size(), 4, [&](std::size_t i) { pooled[i] = solve(i); });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    expect_same_solution(sequence[i], fresh[i], "sequence " + std::to_string(i));
    expect_same_solution(pooled[i], fresh[i], "pooled " + std::to_string(i));
  }
}

}  // namespace
}  // namespace dlsched
