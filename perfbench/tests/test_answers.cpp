// Answer checks: a corrupted answer must count as wrong.
#include <gtest/gtest.h>

#include <bit>

#include "answers.hpp"
#include "platform/generators.hpp"
#include "util/rng.hpp"

namespace {

perfbench::Job random_job(const std::string& solver, std::uint64_t seed) {
  dlsched::gen::GenParams params;
  params["p"] = 4.0;
  dlsched::Rng rng(seed);
  perfbench::Job job;
  job.solver = solver;
  job.request.platform = dlsched::gen::GeneratorRegistry::instance()
                             .make_generated("random_star", params, rng)
                             .platform;
  job.request.seed = seed;
  return job;
}

TEST(Answers, ReferenceIsSolvedValidatedAndDeterministic) {
  const std::vector<perfbench::Job> jobs = {
      random_job("fifo_optimal", 1), random_job("lifo", 2),
      random_job("inc_c", 3)};
  const auto one = perfbench::reference_records(jobs, 1);
  const auto two = perfbench::reference_records(jobs, 2);
  ASSERT_EQ(one.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(one[i].solved && one[i].validated) << jobs[i].solver;
    EXPECT_TRUE(perfbench::answer_matches(two[i], one[i]));
  }
  EXPECT_EQ(perfbench::fold_records(one), perfbench::fold_records(two));
}

TEST(Answers, TimingFieldsDoNotChangeTheDigest) {
  const auto reference =
      perfbench::reference_records({random_job("fifo_optimal", 4)}, 1)[0];
  perfbench::SolveRecord answer = reference;
  answer.wall_seconds += 1.0;
  answer.validate_seconds += 1.0;
  answer.arena_acquires += 7;
  EXPECT_TRUE(perfbench::answer_matches(answer, reference));
}

TEST(Answers, CorruptedAnswersCountAsWrong) {
  const auto reference =
      perfbench::reference_records({random_job("fifo_optimal", 5)}, 1)[0];
  ASSERT_FALSE(reference.alpha.empty());

  perfbench::SolveRecord flipped = reference;
  flipped.alpha[0] = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(flipped.alpha[0]) ^ 1u);
  EXPECT_FALSE(perfbench::answer_matches(flipped, reference));

  perfbench::SolveRecord reordered = reference;
  ASSERT_GE(reordered.send_order.size(), 2u);
  std::swap(reordered.send_order[0], reordered.send_order[1]);
  EXPECT_FALSE(perfbench::answer_matches(reordered, reference));

  perfbench::SolveRecord unvalidated = reference;
  unvalidated.validated = false;
  EXPECT_FALSE(perfbench::answer_matches(unvalidated, reference));

  EXPECT_FALSE(perfbench::answer_matches(perfbench::SolveRecord{}, reference));
}

TEST(Answers, GoldenTableLookup) {
  const std::string table =
      "# workload seed digest\n"
      "serve_cold 3 00000000000000aa\n"
      "sweep_light 3 00000000000000bb\n";
  EXPECT_EQ(perfbench::golden_digest(table, "sweep_light", 3),
            std::optional<std::string>("00000000000000bb"));
  EXPECT_EQ(perfbench::golden_digest(table, "sweep_light", 4), std::nullopt);
  EXPECT_EQ(perfbench::golden_digest(table, "serve_warm", 3), std::nullopt);
}

}  // namespace
