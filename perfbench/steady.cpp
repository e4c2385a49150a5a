#include "steady.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "autograd/autocast.h"
#include "core/op_counters.h"
#include "core/parallel.h"
#include "core/storage_pool.h"
#include "heap_counter.h"
#include "hfta/loss_scaling.h"
#include "host.h"
#include "models/pointnet.h"
#include "models/resnet.h"
#include "nn/layers.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace hfta;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int64_t kMlpWidth = 16, kMlpDepth = 8, kMlpClasses = 4;

/// The sweep's per-model learning rates: geometric, 5e-4 .. 4e-3.
fused::HyperVec sweep_lrs(int64_t B) {
  fused::HyperVec lrs(static_cast<size_t>(B));
  for (int64_t b = 0; b < B; ++b)
    lrs[static_cast<size_t>(b)] =
        5e-4 * std::pow(8.0, B == 1 ? 0.0
                                    : static_cast<double>(b) /
                                          static_cast<double>(B - 1));
  return lrs;
}

TrainStep::AmpOptions amp_options() {
  TrainStep::AmpOptions ao;
  ao.dtype = DType::kF16;
  return ao;
}

std::shared_ptr<nn::Module> build_mlp(Rng& rng) {
  auto net = std::make_shared<nn::Sequential>();
  int64_t prev = kMlpWidth;
  for (int64_t d = 0; d < kMlpDepth; ++d) {
    net->push_back("fc" + std::to_string(d),
                   std::make_shared<nn::Linear>(prev, kMlpWidth, true, rng));
    net->push_back("relu" + std::to_string(d), std::make_shared<nn::ReLU>());
    prev = kMlpWidth;
  }
  net->push_back("head",
                 std::make_shared<nn::Linear>(prev, kMlpClasses, true, rng));
  return net;
}

bool same_tensor(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape() || a.dtype() != b.dtype()) return false;
  if (a.dtype() != DType::kF32) return false;  // params/buffers are f32
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// One stage+run with the pieces timed separately; the run is bracketed by
/// pool, heap and node counter snapshots for the per-step deltas.
struct StepCounters {
  uint64_t heap_allocs = 0, pool_hits = 0, news = 0, new_bytes = 0;
  uint64_t nodes = 0;
  int64_t steps = 0;
};

float counted_fused_step(Job& job, const DataSource& data, StepCounters& c,
                         const char* run_span) {
  ScopedSpan step_span("step");
  {
    ScopedSpan s("data.batch");
    stage_fused(job, data, job.steps_done);
  }
  const StoragePool::Stats p0 = StoragePool::instance().stats();
  const heap::Count h0 = heap::snapshot();
  const uint64_t n0 = counters::node_constructions();
  float loss;
  {
    ScopedSpan s(run_span);
    loss = job.step.run(*job.opt, job.loss).value().item();
  }
  const heap::Count h1 = heap::snapshot();
  const StoragePool::Stats p1 = StoragePool::instance().stats();
  c.heap_allocs += p1.heap_allocs - p0.heap_allocs;
  c.pool_hits += p1.pool_hits - p0.pool_hits;
  c.news += h1.calls - h0.calls;
  c.new_bytes += h1.bytes - h0.bytes;
  c.nodes += counters::node_constructions() - n0;
  ++c.steps;
  ++job.steps_done;
  return loss;
}

double per_step(uint64_t total, int64_t steps) {
  return steps == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(steps);
}

}  // namespace

uint64_t mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---- configurations ----------------------------------------------------------

SteadyConfig pointnet_b8() {
  SteadyConfig c;
  c.name = "pointnet_b8";
  c.kind = ModelKind::kPointNet;
  c.B = 8;
  c.N = 16;
  c.block_steps = 4;
  c.min_steps = 100;
  c.setup_reps = 7;
  c.sweep_steps = 16;
  return c;
}

SteadyConfig mlp_b8() {
  SteadyConfig c;
  c.name = "mlp_b8";
  c.kind = ModelKind::kMlp;
  c.B = 8;
  c.N = 8;
  c.block_steps = 128;
  c.min_steps = 1000;
  c.tail_window = 200;
  c.setup_reps = 45;
  c.sweep_steps = 128;
  c.probe_steps = 200;
  return c;
}

SteadyConfig resnet_amp_b4() {
  SteadyConfig c;
  c.name = "resnet_amp_b4";
  c.kind = ModelKind::kResNet;
  c.B = 4;
  c.N = 8;
  c.amp = true;
  c.block_steps = 2;
  c.min_steps = 50;
  c.tail_window = 50;
  c.setup_reps = 7;
  c.sweep_steps = 8;
  c.probe_steps = 10;
  return c;
}

SteadyConfig tiny(SteadyConfig c) {
  c.B = 2;
  c.N = c.kind == ModelKind::kResNet ? 2 : 4;
  c.dataset_size = 16;
  c.block_steps = 2;
  c.min_steps = 12;
  c.tail_window = 12;
  c.setup_reps = 2;
  c.sweep_steps = 2;
  c.twin_steps = 4;
  c.probe_steps = 3;
  return c;
}

// ---- data ----------------------------------------------------------------------

DataSource::DataSource(const SteadyConfig& cfg, uint64_t seed)
    : cfg_(cfg), seed_(seed) {
  if (cfg.kind == ModelKind::kPointNet) {
    const models::PointNetConfig pc = models::PointNetConfig::tiny();
    clouds_ = std::make_unique<data::PointCloudDataset>(
        cfg.dataset_size, pc.num_points, pc.num_classes, pc.num_parts,
        mix(seed, 1));
  } else if (cfg.kind == ModelKind::kResNet) {
    const models::ResNetConfig rc = models::ResNetConfig::tiny();
    images_ = std::make_unique<data::ImageDataset>(
        cfg.dataset_size, rc.image_size, rc.in_channels, rc.num_classes,
        mix(seed, 2));
  }
}

std::pair<Tensor, Tensor> DataSource::batch(int64_t step, int64_t b) const {
  const uint64_t stream = mix(mix(seed_, static_cast<uint64_t>(step)),
                              static_cast<uint64_t>(b));
  if (cfg_.kind == ModelKind::kMlp) {
    Rng rng(stream);
    Tensor x = Tensor::randn({cfg_.N, kMlpWidth}, rng);
    Tensor y({cfg_.N});
    for (int64_t n = 0; n < cfg_.N; ++n)
      y.data()[n] = static_cast<float>(rng.uniform_int(kMlpClasses));
    return {x, y};
  }
  std::vector<int64_t> idx(static_cast<size_t>(cfg_.N));
  for (int64_t n = 0; n < cfg_.N; ++n)
    idx[static_cast<size_t>(n)] = static_cast<int64_t>(
        mix(stream, static_cast<uint64_t>(n)) %
        static_cast<uint64_t>(cfg_.dataset_size));
  return clouds_ ? clouds_->batch_cls(idx) : images_->batch(idx);
}

// ---- jobs ------------------------------------------------------------------------

std::unique_ptr<Job> build_job(const SteadyConfig& cfg, uint64_t init_seed,
                               bool capture) {
  auto job = std::make_unique<Job>();
  job->cfg = cfg;
  Rng rng(init_seed);
  {
    ScopedSpan s("models");
    for (int64_t b = 0; b < cfg.B; ++b) {
      switch (cfg.kind) {
        case ModelKind::kPointNet:
          job->nets.push_back(std::make_shared<models::PointNetCls>(
                                  models::PointNetConfig::tiny(), rng)
                                  ->net);
          break;
        case ModelKind::kResNet:
          job->nets.push_back(std::make_shared<models::ResNet18>(
                                  models::ResNetConfig::tiny(), rng)
                                  ->net);
          break;
        case ModelKind::kMlp:
          job->nets.push_back(build_mlp(rng));
          break;
      }
    }
  }
  {
    ScopedSpan s("hfta.fusion.compile");
    fused::FusionOptions fo;
    fo.output_layout = fused::Layout::kModelMajor;
    job->array = fused::FusionPlan(cfg.B, fo).compile(job->nets, rng);
  }
  {
    ScopedSpan s("optimizer");
    fused::FusedAdam::Options oo;
    oo.lr = sweep_lrs(cfg.B);
    job->opt = std::make_unique<fused::FusedAdam>(
        fused::collect_fused_parameters(*job->array, cfg.B), cfg.B, oo);
  }
  if (capture) job->step.enable_capture(1);
  if (cfg.amp) job->step.enable_amp(amp_options());
  // Per-model mean CE as (1/N) * sum: its backward scales every row by the
  // same float(1/N) the serial kMean loss uses, so fused == serial holds
  // bit-for-bit for any B and N.
  Job* j = job.get();
  const float inv_n = 1.f / static_cast<float>(cfg.N);
  job->loss = [j, inv_n] {
    ag::Variable logits = j->array->forward(ag::Variable(j->x));
    return ag::mul_scalar(
        fused::fused_cross_entropy(logits, j->labels, ag::Reduction::kSum),
        inv_n);
  };
  return job;
}

void stage_fused(Job& job, const DataSource& data, int64_t step) {
  const int64_t B = job.cfg.B, N = job.cfg.N;
  std::vector<Tensor> xs;
  xs.reserve(static_cast<size_t>(B));
  Tensor labels({B, N});
  for (int64_t b = 0; b < B; ++b) {
    auto [x, y] = data.batch(step, b);
    xs.push_back(x);
    std::memcpy(labels.data() + b * N, y.data(),
                static_cast<size_t>(N) * sizeof(float));
  }
  job.step.stage(&job.x, fused::pack_channel_fused(xs));
  job.step.stage(&job.labels, labels);
}

float fused_step(Job& job, const DataSource& data) {
  stage_fused(job, data, job.steps_done);
  const float loss = job.step.run(*job.opt, job.loss).value().item();
  ++job.steps_done;
  return loss;
}

int64_t run_to_first_replay(Job& job, const DataSource& data) {
  Tracer& tr = Tracer::instance();
  int64_t nonfinite = 0;
  do {
    stage_fused(job, data, job.steps_done);
    const int64_t captures = job.step.stats().captures;
    const int32_t id = tr.enabled() ? tr.begin("hfta.train.warmup") : -1;
    nonfinite += finite_loss(job.step.run(*job.opt, job.loss).value().item())
                     ? 0
                     : 1;
    ++job.steps_done;
    if (id >= 0) {
      tr.end(id);
      // Named after the fact: the step that captured is the capture.
      if (job.step.stats().captures > captures)
        tr.rename(id, "hfta.train.capture");
      else if (job.step.stats().last_was_replay)
        tr.rename(id, "hfta.train.first_replay");
    }
  } while (!job.step.stats().last_was_replay);
  return nonfinite;
}

void attach_serial(Job& job) {
  const fused::HyperVec lrs = sweep_lrs(job.cfg.B);
  for (int64_t b = 0; b < job.cfg.B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    nn::Adam::Options ao;
    ao.lr = lrs[ub];
    job.serial_opts.push_back(
        std::make_unique<nn::Adam>(job.nets[ub]->parameters(), ao));
    auto step = std::make_unique<TrainStep>();
    step->enable_capture(1);
    if (job.cfg.amp) step->enable_amp(amp_options());
    job.serial_steps.push_back(std::move(step));
  }
  job.serial_x.resize(static_cast<size_t>(job.cfg.B));
  job.serial_y.resize(static_cast<size_t>(job.cfg.B));
  job.serial_done.assign(static_cast<size_t>(job.cfg.B), 0);
  Job* j = &job;
  for (int64_t b = 0; b < job.cfg.B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    job.serial_loss.push_back([j, ub] {
      return ag::cross_entropy(
          j->nets[ub]->forward(ag::Variable(j->serial_x[ub])), j->serial_y[ub],
          ag::Reduction::kMean);
    });
  }
}

float serial_step(Job& job, const DataSource& data, int64_t b) {
  const size_t ub = static_cast<size_t>(b);
  TrainStep& step = *job.serial_steps[ub];
  auto [x, y] = data.batch(job.serial_done[ub], b);
  step.stage(&job.serial_x[ub], x);
  step.stage(&job.serial_y[ub], y);
  const float loss =
      step.run(*job.serial_opts[ub], job.serial_loss[ub]).value().item();
  ++job.serial_done[ub];
  return loss;
}

int64_t catch_up_serial(Job& job, const DataSource& data) {
  int64_t nonfinite = 0;
  for (int64_t b = 0; b < job.cfg.B; ++b)
    while (job.serial_done[static_cast<size_t>(b)] < job.steps_done)
      nonfinite += finite_loss(serial_step(job, data, b)) ? 0 : 1;
  return nonfinite;
}

// ---- checks ------------------------------------------------------------------------

bool finite_loss(float loss) { return std::isfinite(loss); }

bool same_state(const nn::Module& a, const nn::Module& b) {
  const auto pa = a.named_parameters(), pb = b.named_parameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i)
    if (!same_tensor(pa[i].second.value(), pb[i].second.value()))
      return false;
  const auto ba = nn::named_buffers_recursive(a),
             bb = nn::named_buffers_recursive(b);
  if (ba.size() != bb.size()) return false;
  for (size_t i = 0; i < ba.size(); ++i)
    if (!same_tensor(ba[i].second, bb[i].second)) return false;
  return true;
}

int64_t fused_serial_mismatches(const Job& job) {
  int64_t bad = 0;
  for (int64_t b = 0; b < job.cfg.B; ++b) {
    const nn::Module& serial = *job.nets[static_cast<size_t>(b)];
    std::shared_ptr<nn::Module> probe = serial.clone();
    if (probe == nullptr) {
      ++bad;
      continue;
    }
    job.array->save_model(b, *probe);
    bad += same_state(*probe, serial) ? 0 : 1;
  }
  return bad;
}

Twins run_twins(const SteadyConfig& cfg, const DataSource& data,
                uint64_t init_seed) {
  Twins t;
  t.replay = build_job(cfg, init_seed, /*capture=*/true);
  t.eager = build_job(cfg, init_seed, /*capture=*/false);
  for (int64_t s = 0; s < cfg.twin_steps; ++s) {
    t.replay_losses.push_back(fused_step(*t.replay, data));
    t.eager_losses.push_back(fused_step(*t.eager, data));
  }
  return t;
}

bool twins_agree(const Twins& t) {
  if (t.replay->step.stats().replays == 0) return false;  // nothing compared
  if (t.replay_losses.size() != t.eager_losses.size()) return false;
  if (std::memcmp(t.replay_losses.data(), t.eager_losses.data(),
                  t.replay_losses.size() * sizeof(float)) != 0)
    return false;
  return same_state(*t.replay->array, *t.eager->array);
}

// ---- the run -------------------------------------------------------------------------

namespace {

/// One timed setup: setup_s ends at the first replayed step; the sweep job
/// (tuning_s) continues for cfg.sweep_steps replays.
void time_setup(const SteadyConfig& cfg, const DataSource& data,
                uint64_t init_seed, RunResult& r, std::vector<double>& setup_s,
                std::vector<double>& sweep_s) {
  ScopedSpan s("setup");
  const auto t0 = Clock::now();
  std::unique_ptr<Job> job = build_job(cfg, init_seed);
  const int64_t bad = run_to_first_replay(*job, data);
  setup_s.push_back(seconds_since(t0));
  r.attempted += job->steps_done;
  if (bad > 0) r.fail(bad, cfg.name + ": non-finite loss in a setup");
  for (int64_t k = 0; k < cfg.sweep_steps; ++k) {
    ++r.attempted;
    if (!finite_loss(fused_step(*job, data)))
      r.fail(1, cfg.name + ": non-finite loss in a sweep job");
  }
  sweep_s.push_back(seconds_since(t0));
}

/// save_model(b) == serial model b, after the same steps on the same data.
void check_fused_vs_serial(const SteadyConfig& cfg, const Job& job,
                           RunResult& r) {
  const int64_t bad = fused_serial_mismatches(job);
  if (bad > 0)
    r.fail(bad, cfg.name + ": save_model(b) != serial model b for " +
                    std::to_string(bad) + " model(s)");
  else
    r.notes.push_back("check: save_model(b) == serial model b (memcmp) for "
                      "all " + std::to_string(cfg.B) + " models after " +
                      std::to_string(job.steps_done) + " steps");
}

/// Replay == eager on a short twin run.
void check_twins(const SteadyConfig& cfg, const DataSource& data,
                 uint64_t init_seed, RunResult& r) {
  ScopedSpan s("checks");
  Twins twins = run_twins(cfg, data, mix(init_seed, 7));
  r.attempted += 2 * cfg.twin_steps;
  if (!twins_agree(twins))
    r.fail(1, cfg.name + ": replay != eager on the twin run");
  else
    r.notes.push_back("check: replay == eager (memcmp) over " +
                      std::to_string(cfg.twin_steps) + " twin steps");
}

std::unique_ptr<Job> main_job(const SteadyConfig& cfg, const DataSource& data,
                              uint64_t init_seed, RunResult& r) {
  std::unique_ptr<Job> job = build_job(cfg, init_seed);
  const int64_t bad = run_to_first_replay(*job, data);
  attach_serial(*job);
  const int64_t bad_serial = catch_up_serial(*job, data);
  r.attempted += job->steps_done * (1 + cfg.B);
  if (bad + bad_serial > 0)
    r.fail(bad + bad_serial, cfg.name + ": non-finite loss in the setup");
  return job;
}

RunResult run_untraced(const SteadyConfig& cfg, const RunOptions& o) {
  RunResult r;
  const DataSource data(cfg, o.seed);
  const uint64_t init_seed = mix(o.seed, 0xA11CE);
  std::unique_ptr<Job> job = main_job(cfg, data, init_seed, r);

  // Rounds of one fused block and one serial block per model. The timed
  // setups are spread evenly over the loop, so every figure samples the
  // whole run rather than one stretch of it.
  std::vector<double> step_ms, fused_rate, serial_rate, setup_s, sweep_s;
  int64_t fused_steps = 0, serial_steps = 0;
  double loop_s = 0;  // fused + serial time, the measured window
  for (;;) {
    const auto f0 = Clock::now();
    for (int64_t k = 0; k < cfg.block_steps; ++k) {
      const auto t0 = Clock::now();
      const float loss = fused_step(*job, data);
      step_ms.push_back(seconds_since(t0) * 1e3);
      if (!finite_loss(loss)) r.fail(1, cfg.name + ": non-finite fused loss");
    }
    const double fused_block_s = seconds_since(f0);
    fused_rate.push_back(static_cast<double>(cfg.B * cfg.N * cfg.block_steps) /
                         fused_block_s);
    fused_steps += cfg.block_steps;
    loop_s += fused_block_s;
    for (int64_t b = 0; b < cfg.B; ++b) {
      const auto t0 = Clock::now();
      for (int64_t k = 0; k < cfg.block_steps; ++k)
        if (!finite_loss(serial_step(*job, data, b)))
          r.fail(1, cfg.name + ": non-finite serial loss");
      const double dt = seconds_since(t0);
      serial_rate.push_back(static_cast<double>(cfg.N * cfg.block_steps) / dt);
      serial_steps += cfg.block_steps;
      loop_s += dt;
    }
    const int64_t reps = static_cast<int64_t>(setup_s.size());
    if (reps < cfg.setup_reps &&
        loop_s >= o.seconds * static_cast<double>(reps) /
                      static_cast<double>(cfg.setup_reps))
      time_setup(cfg, data, init_seed, r, setup_s, sweep_s);
    if (loop_s >= o.seconds && fused_steps >= cfg.min_steps &&
        static_cast<int64_t>(setup_s.size()) >= cfg.setup_reps)
      break;
  }
  r.attempted += fused_steps + serial_steps;
  check_fused_vs_serial(cfg, *job, r);
  check_twins(cfg, data, init_seed, r);

  const WindowedTail tail = windowed_tail(step_ms, cfg.tail_window);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "step_ms_tail is p%.2f (%lld beyond it in each window of "
                "%lld steps), median over %lld windows of %lld fused steps",
                tail.percentile, static_cast<long long>(tail.beyond),
                static_cast<long long>(tail.window),
                static_cast<long long>(tail.windows),
                static_cast<long long>(tail.samples));
  r.notes.push_back(buf);
  const Quartiles fq = quartiles(fused_rate), sq = quartiles(serial_rate);
  std::snprintf(buf, sizeof(buf),
                "block rates (samples/s): fused %.6g [q1 %.6g, q3 %.6g] over "
                "%zu blocks, serial %.6g [q1 %.6g, q3 %.6g] over %zu blocks",
                fq.median, fq.q1, fq.q3, fused_rate.size(), sq.median, sq.q1,
                sq.q3, serial_rate.size());
  r.notes.push_back(buf);
  r.add("samples_per_s", median(fused_rate), "1/s");
  r.add("step_ms_p50", median(step_ms), "ms");
  r.add("step_ms_tail", tail.value, "ms");
  r.add("serial_samples_per_s", median(serial_rate), "1/s");
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("tuning_s", median(sweep_s), "s");
  return r;
}

}  // namespace

ArrayProbe probe_array(const SteadyConfig& cfg, const DataSource& data,
                       uint64_t init_seed, double seconds, RunResult& r) {
  Tracer& tr = Tracer::instance();
  const auto probe_start = Clock::now();
  ArrayProbe p;
  std::vector<double> setup_s, sweep_s;
  for (int64_t rep = 0; rep < cfg.setup_reps; ++rep)
    time_setup(cfg, data, init_seed, r, setup_s, sweep_s);
  p.compile_ms = median(tr.durations_ms("hfta.fusion.compile"));
  p.capture_ms = median(tr.durations_ms("hfta.train.capture"));

  std::unique_ptr<Job> job = main_job(cfg, data, init_seed, r);

  // Tracing overhead: windows of the closed loop in alternating order. A
  // traced window runs the traced run's step (a span with two children and
  // the counter snapshots around the replay); an untraced window runs the
  // untraced benchmark's plain step.
  std::vector<double> traced_sps, plain_sps;
  StepCounters ignore;
  for (int round = 0; round < 4; ++round) {
    for (bool traced : {round % 2 == 0, round % 2 != 0}) {
      tr.set_enabled(traced);
      const auto t0 = Clock::now();
      for (int64_t k = 0; k < cfg.probe_steps; ++k) {
        if (traced)
          counted_fused_step(*job, data, ignore, "hfta.train.replay");
        else
          fused_step(*job, data);
      }
      const double sps = static_cast<double>(cfg.B * cfg.N * cfg.probe_steps) /
                         seconds_since(t0);
      (traced ? traced_sps : plain_sps).push_back(sps);
    }
  }
  tr.set_enabled(true);
  p.traced_vs_untraced = median(traced_sps) / median(plain_sps);
  // The serial models catch up on the same steps, so the check can run.
  r.attempted += 8 * cfg.probe_steps * (1 + cfg.B);
  const int64_t bad = catch_up_serial(*job, data);
  if (bad > 0) r.fail(bad, cfg.name + ": non-finite serial loss");
  check_fused_vs_serial(cfg, *job, r);

  // Replay at the default lane count and at one lane, interleaved, in
  // rounds until the run's time is used, or until the span store keeps
  // only room for the phases after this one (a few rounds' worth). Pool,
  // heap and node counts are taken over the default-lane replays only.
  const int lanes = num_threads();
  StepCounters replay;
  size_t round_spans = 0;
  for (int round = 0;
       round < 2 || (seconds_since(probe_start) < seconds &&
                     tr.spare() > 4 * round_spans + 4096);
       ++round) {
    const size_t spans_before = tr.spans().size();
    for (int k = 0; k < cfg.probe_steps; ++k)
      counted_fused_step(*job, data, replay, "hfta.train.replay");
    set_num_threads(1);
    StepCounters one_lane;
    for (int k = 0; k < cfg.probe_steps; ++k)
      counted_fused_step(*job, data, one_lane, "hfta.train.replay_1lane");
    set_num_threads(lanes);
    r.attempted += 2 * cfg.probe_steps;
    round_spans = tr.spans().size() - spans_before;
  }
  p.replay_ms = median(tr.durations_ms("hfta.train.replay"));
  p.replay_1lane_ms = median(tr.durations_ms("hfta.train.replay_1lane"));
  p.heap_allocs_per_step = per_step(replay.heap_allocs, replay.steps);
  p.hits_per_step = per_step(replay.pool_hits, replay.steps);
  p.new_per_step = per_step(replay.news, replay.steps);
  p.new_bytes_per_step = per_step(replay.new_bytes, replay.steps);
  p.cached_mb = static_cast<double>(StoragePool::instance().stats().cached_bytes) /
                (1024.0 * 1024.0);
  p.captures = job->step.stats().captures;
  p.replay_share = static_cast<double>(job->step.stats().replays) /
                   static_cast<double>(job->step.stats().steps);
  p.overflow_skips = job->step.stats().amp_overflow_skips;

  // The same array replayed with AMP off: the base of every AMP ratio.
  if (cfg.amp) {
    job->step.disable_amp();
    StepCounters fp32;
    for (int k = 0; k < 2; ++k)  // warm-up + capture of the fp32 program
      counted_fused_step(*job, data, fp32, "hfta.train.capture_fp32");
    for (int k = 0; k < 2 * cfg.probe_steps; ++k)
      counted_fused_step(*job, data, fp32, "hfta.loss_scaling.fp32_replay");
    r.attempted += 2 + 2 * cfg.probe_steps;
    p.fp32_replay_ms = median(tr.durations_ms("hfta.loss_scaling.fp32_replay"));
    job->step.enable_amp(amp_options());
  } else {
    p.fp32_replay_ms = p.replay_ms;
  }

  // Eager steps of the same array, split at the public calls.
  uint64_t eager_nodes = 0;
  for (int64_t k = 0; k < cfg.probe_steps; ++k) {
    ScopedSpan step_span("eager_step");
    {
      ScopedSpan s("data.batch");
      stage_fused(*job, data, job->steps_done);
    }
    const uint64_t n0 = counters::node_constructions();
    {
      ScopedSpan s("hfta.fused_optim.zero_grad");
      job->opt->zero_grad();
    }
    ag::Variable loss;
    {
      ScopedSpan s("hfta.fused_ops.forward");
      if (cfg.amp) {
        ag::AutocastGuard guard(DType::kF16);
        loss = job->loss();
      } else {
        loss = job->loss();
      }
    }
    {
      ScopedSpan s("autograd.backward");
      job->step.backward(loss);
    }
    {
      ScopedSpan s("hfta.fused_optim.step");
      job->opt->step();
    }
    eager_nodes += counters::node_constructions() - n0;
    ++job->steps_done;
    ++r.attempted;
    if (!finite_loss(loss.value().item()))
      r.fail(1, cfg.name + ": non-finite eager loss");
  }
  p.nodes_per_step = per_step(eager_nodes, cfg.probe_steps);
  p.batch_ms = median(tr.durations_ms("data.batch"));
  p.forward_ms = median(tr.durations_ms("hfta.fused_ops.forward"));
  p.backward_ms = median(tr.durations_ms("autograd.backward"));
  p.optim_step_ms = median(tr.durations_ms("hfta.fused_optim.step"));
  p.zero_grad_ms = median(tr.durations_ms("hfta.fused_optim.zero_grad"));

  // The serial optimizer step, on serial model 0.
  for (int64_t k = 0; k < cfg.probe_steps; ++k) {
    ScopedSpan step_span("serial_eager_step");
    auto [x, y] = data.batch(job->serial_done[0], 0);
    job->serial_x[0] = x;
    job->serial_y[0] = y;
    job->serial_opts[0]->zero_grad();
    ag::Variable loss;
    {
      ScopedSpan s("nn.forward");
      if (cfg.amp) {
        ag::AutocastGuard guard(DType::kF16);
        loss = job->serial_loss[0]();
      } else {
        loss = job->serial_loss[0]();
      }
    }
    job->serial_steps[0]->backward(loss);
    {
      ScopedSpan s("nn.optim.step");
      job->serial_opts[0]->step();
    }
    ++job->serial_done[0];
    ++r.attempted;
  }
  p.serial_step_ms = median(tr.durations_ms("nn.optim.step"));
  p.arrays_compiled = tr.count("hfta.fusion.compile");
  return p;
}

void add_array_metrics(const ArrayProbe& p, RunResult& r) {
  r.add("data.batch_ms", p.batch_ms, "ms");
  r.add("hfta.fused_ops.forward_ms", p.forward_ms, "ms");
  r.add("autograd.backward_ms", p.backward_ms, "ms");
  r.add("hfta.fused_optim.step_ms", p.optim_step_ms, "ms");
  r.add("hfta.fused_optim.zero_grad_ms", p.zero_grad_ms, "ms");
  r.add("nn.optim.step_ms", p.serial_step_ms, "ms");
  r.add("hfta.train.replay_ms", p.replay_ms, "ms");
  r.add("autograd.nodes_per_step", p.nodes_per_step, "count");
  r.add("core.parallel.thread_speedup", p.replay_1lane_ms / p.replay_ms,
        "ratio");
  r.add("core.storage_pool.heap_allocs_per_step", p.heap_allocs_per_step,
        "count");
  r.add("core.storage_pool.hits_per_step", p.hits_per_step, "count");
  r.add("core.storage_pool.cached_mb", p.cached_mb, "MB");
  r.add("heap.new_per_step", p.new_per_step, "count");
  r.add("heap.new_bytes_per_step", p.new_bytes_per_step, "B");
  r.add("hfta.fusion.compile_ms", p.compile_ms, "ms");
  r.add("hfta.train.capture_ms", p.capture_ms, "ms");
  r.add("hfta.loss_scaling.fp32_replay_ms", p.fp32_replay_ms, "ms");
  r.add("trace.samples_per_s_ratio", p.traced_vs_untraced, "ratio");
}

void finish_trace(const std::string& name, const RunOptions& o,
                  RunResult& r) {
  const Tracer& tr = Tracer::instance();
  if (tr.dropped() > 0)
    r.fail(1, name + ": span store full, " + std::to_string(tr.dropped()) +
                  " spans dropped");
  if (!o.trace_path.empty()) {
    if (tr.write_chrome_json(o.trace_path))
      r.notes.push_back("trace: " + o.trace_path);
    else
      r.notes.push_back("trace: could not write " + o.trace_path);
  }
}

RunResult run_steady(const SteadyConfig& cfg, const RunOptions& o) {
  if (!o.trace) return run_untraced(cfg, o);
  RunResult r;
  Tracer& tr = Tracer::instance();
  tr.clear();
  tr.set_enabled(true);
  const DataSource data(cfg, o.seed);
  const uint64_t init_seed = mix(o.seed, 0xA11CE);
  const ArrayProbe p = probe_array(cfg, data, init_seed, o.seconds, r);
  check_twins(cfg, data, init_seed, r);
  tr.set_enabled(false);
  add_array_metrics(p, r);
  // Layers this workload does not exercise: no compile beyond its own
  // arrays, no repack, no tuner.
  r.add("hfta.fusion.arrays_compiled", static_cast<double>(p.arrays_compiled),
        "count");
  r.add("hfta.fusion.repacks", 0, "count");
  r.add("hfta.fusion.multi_source_repacks", 0, "count");
  r.add("hfta.train.captures", static_cast<double>(p.captures), "count");
  r.add("hfta.train.replay_share", p.replay_share, "ratio");
  r.add("hfht.executor_ms", 0, "ms");
  r.add("hfht.batches", 0, "count");
  r.add("hfht.tuner_ms", 0, "ms");
  r.add("hfta.loss_scaling.overflow_skips",
        static_cast<double>(p.overflow_skips), "count");
  finish_trace(cfg.name, o, r);
  return r;
}

}  // namespace perfbench
