#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "util/strings.h"

namespace eum::obs {

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const auto word = [](char c, bool first) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           (!first && c >= '0' && c <= '9');
  };
  if (!word(name.front(), true)) return false;
  return std::all_of(name.begin() + 1, name.end(), [&](char c) { return word(c, false); });
}

/// Prometheus text-exposition escaping: `\` -> `\\` and line feed ->
/// `\n` everywhere the spec escapes (HELP text and label values); label
/// values are double-quoted and additionally escape `"` -> `\"`. The
/// HELP line is unquoted, so quotes there stay raw per the spec.
std::string prometheus_escape(std::string_view text, bool label_value) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '"':
        if (label_value) {
          out += "\\\"";
        } else {
          out += c;
        }
        break;
      default: out += c;
    }
  }
  return out;
}

/// `{key="value",...}` with the Prometheus escapes, or "" for no labels.
std::string render_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += prometheus_escape(labels[i].second, /*label_value=*/true);
    out += '"';
  }
  out += '}';
  return out;
}

std::string full_name(const std::string& name, const Labels& labels) {
  return name + render_labels(labels);
}

}  // namespace

// ---------- HistogramSnapshot ----------

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (buckets.size() < other.buckets.size()) buckets.resize(other.buckets.size(), 0);
  for (std::size_t i = 0; i < other.buckets.size(); ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

double HistogramSnapshot::percentile(double q) const {
  if (q < 0.0 || q > 100.0) throw std::invalid_argument{"percentile: q outside [0, 100]"};
  if (count == 0) return 0.0;
  const double rank = q / 100.0 * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const auto next = cumulative + buckets[i];
    if (static_cast<double>(next) >= rank) {
      const double lo = static_cast<double>(LatencyHistogram::bucket_lower(i));
      const double hi = static_cast<double>(LatencyHistogram::bucket_upper(i));
      const double frac = std::clamp(
          (rank - static_cast<double>(cumulative)) / static_cast<double>(buckets[i]), 0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return static_cast<double>(LatencyHistogram::bucket_upper(buckets.size() - 1));
}

// ---------- LatencyHistogram ----------

LatencyHistogram::LatencyHistogram(std::size_t shards)
    : shard_count_(std::bit_ceil(std::max<std::size_t>(shards, 1))),
      shard_mask_(shard_count_ - 1),
      buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(shard_count_ * kBucketCount)),
      sums_(std::make_unique<ShardSum[]>(shard_count_)) {
  for (std::size_t i = 0; i < shard_count_ * kBucketCount; ++i) buckets_[i] = 0;
}

std::size_t LatencyHistogram::shard_slot() const noexcept {
  // Round-robin shard assignment per thread: cheap, stable, and spreads
  // any number of worker threads over the shards without hashing.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void LatencyHistogram::record(std::uint64_t value) noexcept {
  if (value > kMaxValue) value = kMaxValue;
  const std::size_t shard = shard_slot() & shard_mask_;
  buckets_[shard * kBucketCount + bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  sums_[shard].sum.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kBucketCount, 0);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      snap.buckets[b] += buckets_[s * kBucketCount + b].load(std::memory_order_relaxed);
    }
    snap.sum += sums_[s].sum.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : snap.buckets) snap.count += c;
  return snap;
}

void LatencyHistogram::reset() noexcept {
  for (std::size_t i = 0; i < shard_count_ * kBucketCount; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  for (std::size_t s = 0; s < shard_count_; ++s) {
    sums_[s].sum.store(0, std::memory_order_relaxed);
  }
}

// ---------- MetricsRegistry ----------

MetricsRegistry::Key MetricsRegistry::make_key(std::string_view name, Labels& labels) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument{"MetricsRegistry: invalid metric name '" + std::string{name} +
                                "'"};
  }
  std::sort(labels.begin(), labels.end());
  return {std::string{name}, render_labels(labels)};
}

void MetricsRegistry::check_kind(const Key& key, Kind kind) const {
  const bool clash = (kind != Kind::counter && counters_.count(key) != 0) ||
                     (kind != Kind::gauge && gauges_.count(key) != 0) ||
                     (kind != Kind::histogram && histograms_.count(key) != 0);
  if (clash) {
    throw std::invalid_argument{"MetricsRegistry: metric '" + key.first + key.second +
                                "' already registered as a different kind"};
  }
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help, Labels labels) {
  Key key = make_key(name, labels);
  const std::scoped_lock lock{mutex_};
  check_kind(key, Kind::counter);
  auto [it, inserted] = counters_.try_emplace(std::move(key));
  if (inserted) {
    it->second.labels = std::move(labels);
    it->second.help = std::string{help};
    it->second.metric = std::make_unique<Counter>();
  }
  return *it->second.metric;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help, Labels labels) {
  Key key = make_key(name, labels);
  const std::scoped_lock lock{mutex_};
  check_kind(key, Kind::gauge);
  auto [it, inserted] = gauges_.try_emplace(std::move(key));
  if (inserted) {
    it->second.labels = std::move(labels);
    it->second.help = std::string{help};
    it->second.metric = std::make_unique<Gauge>();
  }
  return *it->second.metric;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name, std::string_view help,
                                             Labels labels, std::size_t shards) {
  Key key = make_key(name, labels);
  const std::scoped_lock lock{mutex_};
  check_kind(key, Kind::histogram);
  auto [it, inserted] = histograms_.try_emplace(std::move(key));
  if (inserted) {
    it->second.labels = std::move(labels);
    it->second.help = std::string{help};
    it->second.metric = std::make_unique<LatencyHistogram>(shards);
  }
  return *it->second.metric;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  const std::scoped_lock lock{mutex_};
  snap.counters.reserve(counters_.size());
  for (const auto& [key, entry] : counters_) {
    snap.counters.push_back({key.first, entry.labels, entry.help, entry.metric->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, entry] : gauges_) {
    snap.gauges.push_back({key.first, entry.labels, entry.help, entry.metric->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, entry] : histograms_) {
    snap.histograms.push_back({key.first, entry.labels, entry.help, entry.metric->snapshot()});
  }
  return snap;
}

void MetricsRegistry::reset() {
  const std::scoped_lock lock{mutex_};
  for (auto& [key, entry] : counters_) entry.metric->reset();
  for (auto& [key, entry] : histograms_) entry.metric->reset();
  // Gauges mirror live state (cache occupancy, queue depth) and are
  // deliberately NOT cleared — see the reset contract in the header.
}

// ---------- Exposition ----------

std::string render_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  const auto header = [&out](const std::string& name, const std::string& help,
                             const char* type) {
    // HELP text carries operator prose: escape it per the exposition
    // format spec (backslash and line feed) so a multi-line or
    // backslashed help string cannot corrupt the line protocol.
    if (!help.empty()) {
      out += "# HELP " + name + " " + prometheus_escape(help, /*label_value=*/false) + "\n";
    }
    out += "# TYPE " + name + " " + type + "\n";
  };

  std::string last_family;
  for (const auto& sample : snapshot.counters) {
    if (sample.name != last_family) {
      header(sample.name, sample.help, "counter");
      last_family = sample.name;
    }
    out += full_name(sample.name, sample.labels) + " " + std::to_string(sample.value) + "\n";
  }
  last_family.clear();
  for (const auto& sample : snapshot.gauges) {
    if (sample.name != last_family) {
      header(sample.name, sample.help, "gauge");
      last_family = sample.name;
    }
    out += full_name(sample.name, sample.labels) + " " + std::to_string(sample.value) + "\n";
  }
  for (const auto& sample : snapshot.histograms) {
    header(sample.name, sample.help, "histogram");
    // Cumulative buckets; only occupied edges are emitted (a sparse but
    // valid exposition — `le` buckets are cumulative, so gaps are fine).
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < sample.hist.buckets.size(); ++i) {
      if (sample.hist.buckets[i] == 0) continue;
      cumulative += sample.hist.buckets[i];
      Labels with_le = sample.labels;
      with_le.emplace_back("le", std::to_string(LatencyHistogram::bucket_upper(i)));
      out += full_name(sample.name + "_bucket", with_le) + " " + std::to_string(cumulative) +
             "\n";
    }
    Labels inf = sample.labels;
    inf.emplace_back("le", "+Inf");
    out += full_name(sample.name + "_bucket", inf) + " " + std::to_string(sample.hist.count) +
           "\n";
    out += full_name(sample.name + "_sum", sample.labels) + " " +
           std::to_string(sample.hist.sum) + "\n";
    out += full_name(sample.name + "_count", sample.labels) + " " +
           std::to_string(sample.hist.count) + "\n";
  }
  return out;
}

stats::Table render_table(const MetricsSnapshot& snapshot) {
  stats::Table table{"metric", "value"};
  for (const auto& sample : snapshot.counters) {
    table.add_row(full_name(sample.name, sample.labels), sample.value);
  }
  for (const auto& sample : snapshot.gauges) {
    table.add_row({full_name(sample.name, sample.labels), std::to_string(sample.value)});
  }
  for (const auto& sample : snapshot.histograms) {
    const std::string base = full_name(sample.name, sample.labels);
    table.add_row(base + "_count", sample.hist.count);
    table.add_row(base + "_mean", sample.hist.mean(), 1);
    table.add_row(base + "_p50", sample.hist.percentile(50), 1);
    table.add_row(base + "_p90", sample.hist.percentile(90), 1);
    table.add_row(base + "_p99", sample.hist.percentile(99), 1);
    table.add_row(base + "_p999", sample.hist.percentile(99.9), 1);
  }
  return table;
}

std::string render_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& sample = snapshot.counters[i];
    if (i != 0) out += ',';
    out += "\"" + util::json_escape(full_name(sample.name, sample.labels)) +
           "\":" + std::to_string(sample.value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& sample = snapshot.gauges[i];
    if (i != 0) out += ',';
    out += "\"" + util::json_escape(full_name(sample.name, sample.labels)) +
           "\":" + std::to_string(sample.value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& sample = snapshot.histograms[i];
    if (i != 0) out += ',';
    out += "\"" + util::json_escape(full_name(sample.name, sample.labels)) + "\":" +
           util::format("{\"count\":%llu,\"sum\":%llu,\"mean\":%.3f,\"p50\":%.1f,"
                        "\"p90\":%.1f,\"p99\":%.1f,\"p999\":%.1f}",
                        static_cast<unsigned long long>(sample.hist.count),
                        static_cast<unsigned long long>(sample.hist.sum), sample.hist.mean(),
                        sample.hist.percentile(50), sample.hist.percentile(90),
                        sample.hist.percentile(99), sample.hist.percentile(99.9));
  }
  out += "}}";
  return out;
}

}  // namespace eum::obs
