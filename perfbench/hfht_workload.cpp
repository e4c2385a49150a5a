#include "hfht_workload.h"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "hfht/algorithms.h"
#include "hfht/space.h"
#include "host.h"
#include "sim/device.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace hfta;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

hfht::FusedTrainingExecutor::Options executor_options(const HfhtConfig& c,
                                                      uint64_t seed,
                                                      int64_t max_array_size,
                                                      bool verify) {
  hfht::FusedTrainingExecutor::Options o;
  o.dataset_size = c.dataset_size;
  o.eval_size = c.eval_size;
  o.max_array_size = max_array_size;
  o.seed = mix(seed, 3);
  o.verify_against_serial = verify;
  return o;
}

}  // namespace

HfhtConfig hfht_hyperband() {
  HfhtConfig c;
  c.array = pointnet_b8();
  c.array.name = c.name + ".array";
  c.array.B = c.max_array_size;
  c.array.N = c.batch_size;
  c.array.dataset_size = c.dataset_size;
  c.array.setup_reps = c.setup_reps;
  c.array.probe_steps = 40;
  return c;
}

HfhtConfig tiny(HfhtConfig c) {
  c.max_epochs_r = 2;
  c.dataset_size = 16;
  c.eval_size = 8;
  c.min_searches = 1;
  c.setup_reps = 2;
  c.array = tiny(c.array);
  c.array.B = c.max_array_size;
  return c;
}

hfht::ExecutionReport TimedExecutor::run(const std::vector<hfht::Trial>& batch) {
  ScopedSpan span("hfht.executor");
  const auto t0 = Clock::now();
  hfht::ExecutionReport report = inner_.run(batch);
  const double dt = seconds_since(t0);
  executor_s += dt;
  ++batches;
  for (size_t i = 0; i < batch.size(); ++i) {
    const hfht::Trial& t = batch[i];
    int64_t& done = epochs_[t.params];
    samples += std::max<int64_t>(0, t.epochs - done) * samples_per_epoch_;
    done = std::max(done, t.epochs);
    trial_ms.push_back(dt * 1e3 / static_cast<double>(batch.size()));
    ++trials;
    if (i >= report.scores.size() || !std::isfinite(report.scores[i]))
      ++bad_scores;
  }
  return report;
}

SearchOutcome run_search(const HfhtConfig& c, uint64_t seed,
                         int64_t max_array_size, bool verify) {
  // Pin the infusible choices so every rung fuses into one partition: the
  // halving boundaries then exercise repack (and, with rungs larger than
  // max_array_size, the cross-chunk merge) rather than fresh compiles.
  hfht::SearchSpace space = hfht::SearchSpace::pointnet();
  space.params[space.index_of("batch_size")].choices = {
      static_cast<double>(c.batch_size)};
  space.params[space.index_of("feature_transform")].choices = {0};
  hfht::Hyperband hb(space, c.max_epochs_r, c.eta, /*skip_last=*/0,
                     mix(seed, 4));
  hfht::FusedTrainingExecutor exec(
      hfht::Task::kPointNet, sim::v100(),
      executor_options(c, seed, max_array_size, verify));
  TimedExecutor timed(exec, c.dataset_size);

  SearchOutcome s;
  const auto t0 = Clock::now();
  {
    ScopedSpan span("hfht.search");
    hfht::run_tuning(hb, timed);
  }
  s.wall_s = seconds_since(t0);
  s.executor_s = timed.executor_s;
  s.batches = timed.batches;
  s.trials = timed.trials;
  s.samples = timed.samples;
  s.bad_scores = timed.bad_scores;
  s.trial_ms = timed.trial_ms;
  s.max_diff = exec.max_fused_vs_serial_diff();
  s.compiled = exec.arrays_compiled();
  s.repacked = exec.arrays_repacked();
  s.multi_source = exec.multi_source_repacks();
  const TrainStep::Stats& st = exec.train_step().stats();
  s.captures = st.captures;
  s.replays = st.replays;
  s.steps = st.steps;
  return s;
}

bool search_audit_passes(const SearchOutcome& s) {
  return s.trials > 0 && s.bad_scores == 0 && s.max_diff == 0.0;
}

namespace {

/// setup_s for the tuning workload: the executor's construction (synthetic
/// datasets, held-out batch) plus one trial array built, compiled, warmed
/// and captured until its first replayed step.
double time_setup(const HfhtConfig& c, uint64_t seed, const DataSource& data,
                  RunResult& r) {
  ScopedSpan span("setup");
  const auto t0 = Clock::now();
  hfht::FusedTrainingExecutor exec(
      hfht::Task::kPointNet, sim::v100(),
      executor_options(c, seed, c.max_array_size, false));
  std::unique_ptr<Job> job = build_job(c.array, mix(seed, 0xA11CE));
  const int64_t bad = run_to_first_replay(*job, data);
  r.attempted += job->steps_done;
  if (bad > 0) r.fail(bad, c.name + ": non-finite loss in a setup");
  return seconds_since(t0);
}

void count_search(const HfhtConfig& c, const SearchOutcome& s, RunResult& r) {
  r.attempted += s.trials;
  if (s.bad_scores > 0)
    r.fail(s.bad_scores, c.name + ": non-finite trial score");
}

void verify(const HfhtConfig& c, uint64_t seed, RunResult& r) {
  const SearchOutcome v = run_search(c, seed, c.max_array_size, true);
  r.attempted += v.trials;
  if (!search_audit_passes(v)) {
    r.fail(std::max<int64_t>(1, v.trials),
           c.name + ": verified search fused-vs-serial diff " +
               std::to_string(v.max_diff) + ", bad scores " +
               std::to_string(v.bad_scores));
  } else {
    r.notes.push_back(
        "check: max_fused_vs_serial_diff() == 0 over a verified search of " +
        std::to_string(v.trials) + " trials (" +
        std::to_string(v.multi_source) + " multi-source repacks)");
  }
}

RunResult run_untraced(const HfhtConfig& c, const RunOptions& o) {
  RunResult r;
  const DataSource data(c.array, o.seed);

  // Rounds of one fused search and one serial search, with the timed
  // setups spread evenly over the loop.
  std::vector<double> fused_wall, fused_rate, serial_rate, trial_ms, setup_s;
  int64_t search_trials = 0;
  double loop_s = 0;
  for (;;) {
    const SearchOutcome f = run_search(c, o.seed, c.max_array_size, false);
    count_search(c, f, r);
    search_trials = f.trials;
    fused_wall.push_back(f.wall_s);
    fused_rate.push_back(static_cast<double>(f.samples) / f.wall_s);
    trial_ms.insert(trial_ms.end(), f.trial_ms.begin(), f.trial_ms.end());
    const SearchOutcome s = run_search(c, o.seed, 1, false);
    count_search(c, s, r);
    serial_rate.push_back(static_cast<double>(s.samples) / s.wall_s);
    loop_s += f.wall_s + s.wall_s;
    const int64_t reps = static_cast<int64_t>(setup_s.size());
    if (reps < c.setup_reps &&
        loop_s >= o.seconds * static_cast<double>(reps) /
                      static_cast<double>(c.setup_reps))
      setup_s.push_back(time_setup(c, o.seed, data, r));
    if (loop_s >= o.seconds &&
        static_cast<int64_t>(fused_wall.size()) >= c.min_searches &&
        static_cast<int64_t>(setup_s.size()) >= c.setup_reps)
      break;
  }
  verify(c, o.seed, r);

  const WindowedTail tail =
      windowed_tail(trial_ms, c.min_searches * search_trials);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "step_ms_tail is p%.2f (%lld beyond it in each window of "
                "%lld trials = %lld searches), median over %lld windows of "
                "%lld trials; one operation is one trial",
                tail.percentile, static_cast<long long>(tail.beyond),
                static_cast<long long>(tail.window),
                static_cast<long long>(c.min_searches),
                static_cast<long long>(tail.windows),
                static_cast<long long>(tail.samples));
  r.notes.push_back(buf);
  r.add("samples_per_s", median(fused_rate), "1/s");
  r.add("step_ms_p50", median(trial_ms), "ms");
  r.add("step_ms_tail", tail.value, "ms");
  r.add("serial_samples_per_s", median(serial_rate), "1/s");
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("tuning_s", median(fused_wall), "s");
  return r;
}

RunResult run_traced(const HfhtConfig& c, const RunOptions& o) {
  RunResult r;
  Tracer& tr = Tracer::instance();
  tr.clear();
  tr.set_enabled(true);
  const DataSource data(c.array, o.seed);
  ArrayProbe p =
      probe_array(c.array, data, mix(o.seed, 0xA11CE), o.seconds / 2, r);

  // Untraced and traced searches in alternating order, for the tracing
  // overhead at the workload's own level; the last traced search gives
  // the executor/tuner split and the executor's counters.
  std::vector<double> plain_wall, traced_wall;
  SearchOutcome s;
  const auto t0 = Clock::now();
  for (int round = 0; round < 2 || seconds_since(t0) < o.seconds / 2;
       ++round) {
    for (bool traced : {round % 2 != 0, round % 2 == 0}) {
      tr.set_enabled(traced);
      SearchOutcome one = run_search(c, o.seed, c.max_array_size, false);
      count_search(c, one, r);
      (traced ? traced_wall : plain_wall).push_back(one.wall_s);
      if (traced) s = std::move(one);
    }
  }
  tr.set_enabled(true);
  verify(c, o.seed, r);
  tr.set_enabled(false);

  p.traced_vs_untraced = median(plain_wall) / median(traced_wall);
  add_array_metrics(p, r);
  r.add("hfta.fusion.arrays_compiled", static_cast<double>(s.compiled),
        "count");
  r.add("hfta.fusion.repacks", static_cast<double>(s.repacked), "count");
  r.add("hfta.fusion.multi_source_repacks",
        static_cast<double>(s.multi_source), "count");
  r.add("hfta.train.captures", static_cast<double>(s.captures), "count");
  r.add("hfta.train.replay_share",
        s.steps == 0 ? 0.0
                     : static_cast<double>(s.replays) /
                           static_cast<double>(s.steps),
        "ratio");
  r.add("hfht.executor_ms", s.executor_s * 1e3, "ms");
  r.add("hfht.batches", static_cast<double>(s.batches), "count");
  r.add("hfht.tuner_ms", (s.wall_s - s.executor_s) * 1e3, "ms");
  r.add("hfta.loss_scaling.overflow_skips", 0, "count");
  finish_trace(c.name, o, r);
  return r;
}

}  // namespace

RunResult run_hfht(const HfhtConfig& c, const RunOptions& o) {
  return o.trace ? run_traced(c, o) : run_untraced(c, o);
}

}  // namespace perfbench
