// The repeat rule of the benches that commit a record: a speed figure
// is the median of its repeats with its quartiles beside it, and a
// speedup whose quartiles cover 1.0 is reported as null with a reason,
// because those runs cannot tell faster from slower.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/quantile.hpp"

namespace sring::bench {

struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

inline Spread spread_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {obs::percentile_sorted(samples, 0.50),
          obs::percentile_sorted(samples, 0.25),
          obs::percentile_sorted(samples, 0.75)};
}

inline obs::JsonValue to_json(const Spread& s) {
  obs::JsonValue j = obs::JsonValue::object();
  j.set("median", s.median);
  j.set("q1", s.q1);
  j.set("q3", s.q3);
  return j;
}

/// Sets `key` to the speedup's spread, or to null with a
/// `<key>_null_reason` when the quartiles cover 1.0.
inline void set_speedup(obs::JsonValue& out, const std::string& key,
                        const Spread& s) {
  if (s.q1 > 1.0 || s.q3 < 1.0) {
    out.set(key, to_json(s));
    return;
  }
  out.set(key, nullptr);
  out.set(key + "_null_reason", "quartiles " + std::to_string(s.q1) +
                                    " to " + std::to_string(s.q3) +
                                    " cover 1.0");
}

}  // namespace sring::bench
