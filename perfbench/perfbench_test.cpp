// The benchmark's own tests: the statistics it reports by, every
// correctness check failing on a deliberately perturbed weight or loss (so
// no check passes vacuously), the span recorder, the operator new counter,
// and a tiny-configuration smoke run of every workload in both modes.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>

#include "heap_counter.h"
#include "hfht_workload.h"
#include "stats.h"
#include "steady.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

/// Moves the first element of the module's first parameter by one ulp.
void nudge_first_weight(hfta::nn::Module& m) {
  auto params = m.named_parameters();
  float* w = params.front().second.mutable_value().data();
  w[0] = std::nextafter(w[0], std::numeric_limits<float>::infinity());
}

/// A tiny MLP job with its serial side trained in lockstep.
std::unique_ptr<Job> lockstep_job(const SteadyConfig& cfg,
                                  const DataSource& data, int64_t steps) {
  std::unique_ptr<Job> job = build_job(cfg, 5);
  EXPECT_EQ(run_to_first_replay(*job, data), 0);
  attach_serial(*job);
  while (job->steps_done < steps) fused_step(*job, data);
  EXPECT_EQ(catch_up_serial(*job, data), 0);
  return job;
}

std::string exe_dir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  std::string p = n > 0 ? std::string(buf, static_cast<size_t>(n)) : ".";
  return p.substr(0, p.find_last_of('/'));
}

}  // namespace

TEST(Stats, TailIsTheHighestPercentileWithTenSamplesBeyond) {
  const Tail t = tail_percentile(one_to(100));
  EXPECT_TRUE(t.valid);
  EXPECT_EQ(t.value, 90);  // values 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100);
  EXPECT_EQ(t.beyond, 10);

  const Tail t1000 = tail_percentile(one_to(1000));
  EXPECT_EQ(t1000.value, 990);
  EXPECT_DOUBLE_EQ(t1000.percentile, 99.0);

  const Tail t11 = tail_percentile(one_to(11));
  EXPECT_TRUE(t11.valid);
  EXPECT_EQ(t11.value, 1);
  EXPECT_EQ(t11.beyond, 10);
}

TEST(Stats, TailWithTooFewSamplesIsFlagged) {
  const Tail t = tail_percentile(one_to(10));
  EXPECT_FALSE(t.valid);
  EXPECT_EQ(t.value, 10);
  EXPECT_EQ(t.samples, 10);
  EXPECT_EQ(t.beyond, 0);
  EXPECT_FALSE(tail_percentile({}).valid);
}

TEST(Stats, QuartilesMatchPythonStatistics) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles two = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
}

TEST(Checks, NonFiniteLossFails) {
  EXPECT_TRUE(finite_loss(1.25f));
  EXPECT_FALSE(finite_loss(std::numeric_limits<float>::quiet_NaN()));
  EXPECT_FALSE(finite_loss(std::numeric_limits<float>::infinity()));
}

TEST(Checks, FusedVsSerialCatchesAPerturbedWeight) {
  const SteadyConfig cfg = tiny(mlp_b8());
  const DataSource data(cfg, 3);
  std::unique_ptr<Job> job = lockstep_job(cfg, data, 6);
  EXPECT_EQ(fused_serial_mismatches(*job), 0);
  nudge_first_weight(*job->nets[1]);
  EXPECT_EQ(fused_serial_mismatches(*job), 1);
}

TEST(Checks, FusedVsSerialCatchesAPerturbedFusedWeight) {
  const SteadyConfig cfg = tiny(pointnet_b8());
  const DataSource data(cfg, 4);
  std::unique_ptr<Job> job = lockstep_job(cfg, data, 5);
  EXPECT_EQ(fused_serial_mismatches(*job), 0);
  nudge_first_weight(*job->array);  // model 0's slice of the fused weight
  EXPECT_GE(fused_serial_mismatches(*job), 1);
}

TEST(Checks, FusedVsSerialHoldsUnderAmp) {
  const SteadyConfig cfg = tiny(resnet_amp_b4());
  const DataSource data(cfg, 6);
  std::unique_ptr<Job> job = lockstep_job(cfg, data, 4);
  EXPECT_TRUE(job->step.amp_enabled());
  EXPECT_EQ(fused_serial_mismatches(*job), 0);
}

TEST(Checks, ReplayVsEagerCatchesAPerturbedLossAndWeight) {
  const SteadyConfig cfg = tiny(mlp_b8());
  const DataSource data(cfg, 7);
  Twins t = run_twins(cfg, data, 11);
  EXPECT_GT(t.replay->step.stats().replays, 0);
  EXPECT_EQ(t.eager->step.stats().replays, 0);
  EXPECT_TRUE(twins_agree(t));

  const float saved = t.replay_losses.back();
  t.replay_losses.back() = std::nextafter(saved, 0.f);
  EXPECT_FALSE(twins_agree(t));
  t.replay_losses.back() = saved;
  EXPECT_TRUE(twins_agree(t));

  nudge_first_weight(*t.eager->array);
  EXPECT_FALSE(twins_agree(t));
}

TEST(Checks, SearchAuditCatchesADiffOrABadScore) {
  SearchOutcome s;
  s.trials = 14;
  EXPECT_TRUE(search_audit_passes(s));
  s.max_diff = 1e-9;
  EXPECT_FALSE(search_audit_passes(s));
  s.max_diff = 0;
  s.bad_scores = 1;
  EXPECT_FALSE(search_audit_passes(s));
  s.bad_scores = 0;
  s.trials = 0;  // an empty search verifies nothing
  EXPECT_FALSE(search_audit_passes(s));
}

TEST(Checks, VerifiedTinySearchIsExact) {
  const SearchOutcome s = run_search(tiny(hfht_hyperband()), 9, 2, true);
  EXPECT_GT(s.trials, 0);
  EXPECT_EQ(s.max_diff, 0.0);
  EXPECT_TRUE(search_audit_passes(s));
}

TEST(Trace, SpansNestAndExportAsChromeJson) {
  Tracer& tr = Tracer::instance();
  tr.clear();
  tr.set_enabled(true);
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
    { ScopedSpan inner("inner"); }
  }
  { ScopedSpan root("root"); }
  tr.set_enabled(false);
  { ScopedSpan off("off"); }
  ASSERT_EQ(tr.spans().size(), 4u);
  EXPECT_EQ(tr.spans()[0].parent, -1);
  EXPECT_EQ(tr.spans()[1].parent, 0);
  EXPECT_EQ(tr.spans()[2].parent, 0);
  EXPECT_EQ(tr.spans()[3].parent, -1);
  EXPECT_EQ(tr.count("inner"), 2);
  EXPECT_EQ(tr.count("off"), 0);
  EXPECT_EQ(tr.durations_ms("inner").size(), 2u);
  for (const auto& s : tr.spans()) EXPECT_GE(s.end_ns, s.start_ns);

  const std::string path = exe_dir() + "/perfbench_test_trace.json";
  ASSERT_TRUE(tr.write_chrome_json(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\", \"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\": 0"), std::string::npos);
  tr.clear();
}

TEST(Trace, FullStoreDropsSpansInsteadOfGrowing) {
  Tracer& tr = Tracer::instance();
  tr.clear();
  tr.set_enabled(true);
  const size_t capacity = tr.spare();
  const void* store = tr.spans().data();
  for (size_t i = 0; i < capacity + 5; ++i) ScopedSpan s("fill");
  tr.set_enabled(false);
  EXPECT_EQ(tr.spare(), 0u);
  EXPECT_EQ(tr.dropped(), 5);
  EXPECT_EQ(tr.spans().size(), capacity);
  EXPECT_EQ(tr.spans().data(), store);  // never reallocated
  tr.clear();
  EXPECT_EQ(tr.dropped(), 0);
  EXPECT_EQ(tr.spare(), capacity);
}

TEST(HeapCounter, CountsOperatorNew) {
  ASSERT_TRUE(heap::counting());
  // Function-call syntax: unlike new-expressions, these calls may not be
  // elided or merged by the optimizer.
  const heap::Count a = heap::snapshot();
  void* p = ::operator new(400);
  void* q = ::operator new(64, std::align_val_t(64));
  const heap::Count b = heap::snapshot();
  ::operator delete(p);
  ::operator delete(q, std::align_val_t(64));
  EXPECT_GE(b.calls - a.calls, 2u);
  EXPECT_GE(b.bytes - a.bytes, 464u);
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, TinyRunIsCorrectAndReportsEveryMetric) {
  for (bool trace : {false, true}) {
    RunOptions o;
    o.seed = 2;
    o.seconds = 0.2;
    o.trace = trace;
    const RunResult r = run_workload(GetParam(), o, /*small=*/true);
    EXPECT_TRUE(r.correct) << GetParam() << " trace=" << trace;
    EXPECT_EQ(r.failed, 0);
    EXPECT_GE(r.attempted, 1);
    std::set<std::string> names;
    for (const Metric& m : r.metrics) {
      names.insert(m.name);
      EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    }
    const auto& want =
        trace ? per_layer_metric_names() : end_to_end_metric_names();
    EXPECT_EQ(names, std::set<std::string>(want.begin(), want.end()));
    EXPECT_EQ(r.metrics.size(), want.size());
    if (!trace) {
      for (const Metric& m : r.metrics) EXPECT_GT(m.value, 0) << m.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Smoke,
                         ::testing::ValuesIn(workload_names()));
