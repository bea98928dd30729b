#include "obs/metrics.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sring::obs {

Histogram::Histogram(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  check(std::is_sorted(bounds_.begin(), bounds_.end()),
        "Histogram: bucket bounds must be ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

Histogram Histogram::from_counts(std::vector<std::uint64_t> upper_bounds,
                                 const std::vector<std::uint64_t>& counts) {
  Histogram h(std::move(upper_bounds));
  check(counts.size() <= h.counts_.size(),
        "Histogram::from_counts: more counts than buckets");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    h.counts_[i] = counts[i];
    h.count_ += counts[i];
    // sum/max are approximated by the bucket bound the samples fell in.
    const std::uint64_t bound =
        i < h.bounds_.size() ? h.bounds_[i]
                             : (h.bounds_.empty() ? 0 : h.bounds_.back());
    h.sum_ += counts[i] * bound;
    if (counts[i] > 0) h.max_ = std::max(h.max_, bound);
  }
  return h;
}

void Histogram::record(std::uint64_t sample) noexcept {
  std::size_t i = 0;
  while (i < bounds_.size() && sample > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += sample;
  max_ = std::max(max_, sample);
}

namespace {

/// Saturating add: merged totals pin at uint64 max instead of
/// wrapping — a histogram that has seen "too many" samples must never
/// report a small count.
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) noexcept {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

}  // namespace

bool Histogram::merge_from(const Histogram& other) {
  if (bounds_ != other.bounds_) return false;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] = sat_add(counts_[i], other.counts_[i]);
  }
  count_ = sat_add(count_, other.count_);
  sum_ = sat_add(sum_, other.sum_);
  max_ = std::max(max_, other.max_);
  return true;
}

JsonValue Histogram::to_json() const {
  JsonValue v = JsonValue::object();
  v.set("count", count_);
  v.set("sum", sum_);
  v.set("max", max_);
  JsonValue bounds = JsonValue::array();
  for (const auto b : bounds_) bounds.push_back(b);
  v.set("bounds", std::move(bounds));
  JsonValue counts = JsonValue::array();
  for (const auto c : counts_) counts.push_back(c);
  v.set("buckets", std::move(counts));
  return v;
}

Counter& Registry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Histogram& Registry::histogram(
    std::string_view name, const std::vector<std::uint64_t>& upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram(upper_bounds))
      .first->second;
}

void Registry::put_histogram(std::string_view name, Histogram h) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    it->second = std::move(h);
    return;
  }
  histograms_.emplace(std::string(name), std::move(h));
}

const Counter* Registry::find_counter(std::string_view name) const noexcept {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(
    std::string_view name) const noexcept {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name).add(c.value());
  }
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
      continue;
    }
    check(it->second.merge_from(h),
          "Registry::merge_from: histogram '" + name +
              "' has mismatched bucket bounds");
  }
}

JsonValue Registry::to_json() const {
  JsonValue v = JsonValue::object();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, c] : counters_) counters.set(name, c.value());
  v.set("counters", std::move(counters));
  JsonValue hists = JsonValue::object();
  for (const auto& [name, h] : histograms_) hists.set(name, h.to_json());
  v.set("histograms", std::move(hists));
  return v;
}

}  // namespace sring::obs
