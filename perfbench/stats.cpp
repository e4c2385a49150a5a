#include "stats.h"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  q.median = median(v);
  const int64_t n = static_cast<int64_t>(v.size());
  if (n == 1) {
    q.q1 = q.q3 = v[0];
    return q;
  }
  // statistics.quantiles(method="exclusive") with n=4, same integer math
  // (including its clamp-then-extrapolate behaviour on tiny samples).
  auto at = [&](int64_t i) {
    const int64_t m = n + 1;
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const int64_t delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) / 4.0;
  };
  q.q1 = at(1);
  q.q3 = at(3);
  return q;
}

Tail tail_percentile(std::vector<double> v, int64_t min_beyond) {
  Tail t;
  t.samples = static_cast<int64_t>(v.size());
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (t.samples <= min_beyond) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  const int64_t rank = t.samples - min_beyond;  // 1-based
  t.value = v[static_cast<size_t>(rank - 1)];
  t.percentile = 100.0 * static_cast<double>(rank) /
                 static_cast<double>(t.samples);
  t.beyond = min_beyond;
  t.valid = true;
  return t;
}

WindowedTail windowed_tail(const std::vector<double>& v, int64_t window,
                           int64_t min_beyond) {
  WindowedTail w;
  const int64_t n = static_cast<int64_t>(v.size());
  w.window = std::max<int64_t>(1, std::min(window, n));
  w.windows = n / w.window;
  w.samples = w.windows * w.window;
  std::vector<double> tails;
  for (int64_t i = 0; i < w.windows; ++i) {
    const Tail t = tail_percentile(
        std::vector<double>(v.begin() + i * w.window,
                            v.begin() + (i + 1) * w.window),
        min_beyond);
    tails.push_back(t.value);
    w.percentile = t.percentile;
    w.beyond = t.beyond;
  }
  w.value = median(tails);
  return w;
}

}  // namespace perfbench
