// Unit tests for the benchmark's own statistics, span accounting and
// correctness checks.
#include <gtest/gtest.h>

#include <cmath>

#include "attacks/attacks.h"
#include "expected.h"
#include "kernel/machine.h"
#include "kernel/workloads.h"
#include "stats.h"

namespace pb = perfbench;
using namespace camo;

TEST(Stats, MedianOddEvenEmpty) {
  EXPECT_EQ(pb::median({3, 1, 2}), 2);
  EXPECT_EQ(pb::median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(pb::median({}), 0);
}

TEST(Stats, QuartilesMatchPythonExclusive) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const pb::Quartiles q = pb::quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const pb::Quartiles two = pb::quartiles({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const pb::Quartiles five = pb::quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q3, 12.0);
  EXPECT_DOUBLE_EQ(pb::spread({16, 1, 8, 2, 4}), (12.0 - 1.5) / 4.0);
  EXPECT_THROW(pb::quartiles({1}), std::invalid_argument);
}

TEST(Stats, NearestRankPercentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(pb::nearest_rank(100, 50), 50u);
  EXPECT_EQ(pb::percentile(v, 50), 50);
  EXPECT_EQ(pb::percentile(v, 99), 99);
  EXPECT_EQ(pb::percentile(v, 100), 100);
  EXPECT_EQ(pb::percentile({5, 1, 3}, 50), 3);  // rank ceil(1.5) = 2
  EXPECT_EQ(pb::percentile({7}, 99), 7);
  EXPECT_EQ(pb::nearest_rank(1000, 99), 990u);
  EXPECT_EQ(pb::percentile({}, 99), 0);
}

TEST(Stats, TenBeyondRule) {
  // p99 needs ten samples ranked above it: 1000 samples give exactly ten.
  EXPECT_EQ(pb::beyond(1000, 99), 10u);
  EXPECT_TRUE(pb::percentile_supported(1000, 99));
  EXPECT_EQ(pb::beyond(999, 99), 9u);  // rank ceil(989.01) = 990
  EXPECT_FALSE(pb::percentile_supported(999, 99));
  EXPECT_TRUE(pb::percentile_supported(1100, 99));
  EXPECT_FALSE(pb::percentile_supported(100, 99));
  EXPECT_TRUE(pb::percentile_supported(20, 50));
  EXPECT_FALSE(pb::percentile_supported(0, 50));
}

TEST(Spans, SelfTimeWithOverlappingChildren) {
  // Parent [0, 100); children [10, 40) and [30, 60) overlap on two
  // workers, [90, 120) sticks out of the parent: covered = 50 + 10.
  std::vector<pb::Span> s = {
      {"round", 0, 100, -1, 1},   {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},        {"c", 90, 120, 0, 1},
      {"grandchild", 12, 20, 1, 1},
  };
  const std::vector<int64_t> self = pb::self_times(s);
  EXPECT_EQ(self[0], 100 - 60);
  EXPECT_EQ(self[1], 30 - 8);  // only its own child counts
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 8);
}

TEST(Spans, LogRecordsParentAndCell) {
  pb::SpanLog log;
  const int p = log.open("cell", 7, -1, 100);
  const int c = log.open("kernel.run", 7, p, 110);
  log.close(c, 150);
  log.close(p, 200);
  const auto spans = log.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, p);
  EXPECT_EQ(spans[1].cell, 7u);
  EXPECT_EQ(pb::self_times(spans)[0], 100 - 40);
}

TEST(Names, MetricNameCharset) {
  EXPECT_TRUE(pb::valid_metric_name("scenario_ms.p99"));
  EXPECT_TRUE(pb::valid_metric_name("attacks.scenario_ms.trapframe-migration.p50"));
  EXPECT_TRUE(pb::valid_metric_name("1st"));
  EXPECT_FALSE(pb::valid_metric_name(""));
  EXPECT_FALSE(pb::valid_metric_name(".hidden"));
  EXPECT_FALSE(pb::valid_metric_name("_x"));
  EXPECT_FALSE(pb::valid_metric_name("a b"));
  EXPECT_FALSE(pb::valid_metric_name("a/b"));
  EXPECT_FALSE(pb::valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(pb::valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(pb::valid_unit("insn/us"));
  EXPECT_TRUE(pb::valid_unit("%"));
  EXPECT_FALSE(pb::valid_unit("m s"));
  EXPECT_FALSE(pb::valid_unit(std::string(17, 'a')));
}

TEST(Names, ScenarioTableCoversTheRegistry) {
  const auto& attacks = attacks::attack_names();
  const auto& configs = attacks::attack_config_names();
  ASSERT_EQ(std::size(pb::kScenarios), attacks.size() * configs.size());
  size_t i = 0;
  for (const auto& a : attacks)
    for (const auto& c : configs) {
      EXPECT_EQ(a, pb::kScenarios[i].attack);
      EXPECT_EQ(c, pb::kScenarios[i].config);
      ++i;
    }
}

TEST(FailRate, ForcedWrongVerdictCounts) {
  attacks::snapshot_mode() = false;
  pb::Tally tally;
  const pb::ScenarioExpect* trapframe_full = nullptr;
  for (const auto& e : pb::kScenarios)
    if (std::string(e.attack) == "trapframe" && std::string(e.config) == "full")
      trapframe_full = &e;
  ASSERT_NE(trapframe_full, nullptr);
  ASSERT_EQ(trapframe_full->outcome, attacks::Outcome::Hijacked);
  const auto r = attacks::run_named_attack("trapframe", "full");
  tally.record(pb::scenario_matches(*trapframe_full, r, false));
  pb::ScenarioExpect wrong = *trapframe_full;
  wrong.outcome = attacks::Outcome::Detected;
  tally.record(pb::scenario_matches(wrong, r, false));
  tally.record(pb::scenario_matches(*trapframe_full, std::nullopt, false));
  EXPECT_EQ(tally.attempted(), 3u);
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_DOUBLE_EQ(tally.fail_rate(), 2.0 / 3.0);
}

TEST(FailRate, ForcedWrongCycleCountCounts) {
  kernel::MachineConfig cfg;
  cfg.kernel.log_pac_failures = false;
  kernel::Machine m(cfg);
  m.add_user_program(kernel::workloads::null_syscall(10));
  m.boot();
  m.run(10'000'000);
  const pb::RunExpect got{m.halt_code(), m.cpu().cycles(), m.total_retired()};
  ASSERT_EQ(got.halt_code, kernel::kHaltDone);
  pb::Tally tally;
  tally.record(pb::run_matches(got, got));
  pb::RunExpect wrong = got;
  wrong.sim_cycles += 1;
  tally.record(pb::run_matches(wrong, got));
  wrong = got;
  wrong.retired -= 1;
  tally.record(pb::run_matches(wrong, got));
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_GT(tally.fail_rate(), 0);
}
