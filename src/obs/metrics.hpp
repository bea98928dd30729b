// Hierarchical counter / histogram registry — the profiling half of
// the paper's §6 "compiling/profiling tool" as a queryable API.
//
// Instrument names are dot-separated paths ("dnode.0.1.issue",
// "switch.3.route_changes"); the registry stores them sorted, so
// serialization order is deterministic.  Counters and histograms are
// plain value types: the hot simulation paths keep their own raw
// arrays (see Ring / Controller / ConfigMemory) and the registry is a
// named snapshot assembled on demand by System::metrics() — reading
// the metrics never perturbs the run being measured.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace sring::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  void set(std::uint64_t value) noexcept { value_ = value; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Fixed-bucket histogram.  Bucket i counts samples <= bounds[i]
/// (bounds ascending); one implicit overflow bucket counts the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> upper_bounds);

  /// Build directly from per-bucket counts maintained elsewhere
  /// (`counts` may include the overflow bucket as its last element or
  /// omit it; missing tail buckets read as zero).
  static Histogram from_counts(std::vector<std::uint64_t> upper_bounds,
                               const std::vector<std::uint64_t>& counts);

  void record(std::uint64_t sample) noexcept;

  /// Element-wise accumulate `other` into this histogram; counts and
  /// sums saturate at uint64 max instead of wrapping.  Returns
  /// false (and leaves this histogram untouched) when the bucket
  /// bounds differ — merging histograms of different shapes is a
  /// caller bug, reported rather than silently misfiled.
  bool merge_from(const Histogram& other);

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t max() const noexcept { return max_; }
  const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const noexcept {
    return counts_;
  }

  JsonValue to_json() const;

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Named instrument collection.  Copyable; iteration is name-sorted.
class Registry {
 public:
  /// Get or create the counter at `name`.
  Counter& counter(std::string_view name);

  /// Get or create a histogram; `upper_bounds` is used (and copied)
  /// on creation only, so a lookup of an existing one copies nothing.
  Histogram& histogram(std::string_view name,
                       const std::vector<std::uint64_t>& upper_bounds);

  /// Insert a prebuilt histogram under `name` (replaces any existing).
  void put_histogram(std::string_view name, Histogram h);

  const Counter* find_counter(std::string_view name) const noexcept;
  const Histogram* find_histogram(std::string_view name) const noexcept;

  const std::map<std::string, Counter, std::less<>>& counters()
      const noexcept {
    return counters_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms()
      const noexcept {
    return histograms_;
  }

  std::size_t size() const noexcept {
    return counters_.size() + histograms_.size();
  }

  /// Accumulate another registry into this one: counters add, and
  /// histograms with matching bounds add bucket-wise (an absent name
  /// is copied).  This is how the runtime folds per-worker registries
  /// into one fleet snapshot — each worker owns its registry
  /// lock-free and the merge happens only at snapshot time.  Throws
  /// SimError when two histograms share a name but not bounds.
  void merge_from(const Registry& other);

  /// {"counters": {name: value, ...}, "histograms": {name: {...}, ...}}
  JsonValue to_json() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace sring::obs
