#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <utility>

namespace weakset::obs {

// ---------------------------------------------------------------------------
// Histogram

// Bucket layout: values 0..15 get exact buckets 0..15; for larger values the
// power-of-two range [2^m, 2^(m+1)) is split into 16 linear sub-buckets.
// Index = ((m - 3) << 4) + sub keeps the whole sequence contiguous:
// [16, 32) -> 16..31, [32, 64) -> 32..47, and so on.
namespace {
constexpr std::size_t kSubBits = 4;
constexpr std::int64_t kSub = std::int64_t{1} << kSubBits;
}  // namespace

std::size_t Histogram::bucket_index(std::int64_t value) noexcept {
  if (value < 0) value = 0;
  if (value < kSub) return static_cast<std::size_t>(value);
  const int msb = std::bit_width(static_cast<std::uint64_t>(value)) - 1;
  const int shift = msb - static_cast<int>(kSubBits);
  const auto sub =
      static_cast<std::size_t>((value >> shift) & (kSub - 1));
  return ((static_cast<std::size_t>(msb) - kSubBits + 1) << kSubBits) + sub;
}

std::int64_t Histogram::bucket_lower(std::size_t index) noexcept {
  const std::size_t group = index >> kSubBits;
  const auto sub = static_cast<std::int64_t>(index & (kSub - 1));
  if (group == 0) return sub;
  return (kSub + sub) << (group - 1);
}

std::int64_t Histogram::bucket_upper(std::size_t index) noexcept {
  // Upper bound is the next bucket's lower bound minus one; saturate at the
  // top of the int64 range.
  const std::int64_t next = bucket_lower(index + 1);
  if (next <= bucket_lower(index)) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return next - 1;
}

void Histogram::record(std::int64_t value) {
  if (value < 0) value = 0;
  const std::size_t index = bucket_index(value);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

std::int64_t Histogram::percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 1-based: the smallest rank r such that
  // r >= q * count (at least 1).
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      // The bucket's upper bound, clamped to the exact observed max (so the
      // top percentiles never exceed a value that was actually recorded).
      return std::min(bucket_upper(i), max_);
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::vector<std::pair<std::int64_t, std::uint64_t>> Histogram::nonzero_buckets()
    const {
  std::vector<std::pair<std::int64_t, std::uint64_t>> out;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) out.emplace_back(bucket_lower(i), buckets_[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Interned names

namespace {

/// One process-wide table of names: dense ids in interning order.
class NameTable {
 public:
  std::uint32_t intern(std::string_view name) {
    if (const auto it = index_.find(name); it != index_.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    index_.emplace(names_.back(), id);
    return id;
  }

  [[nodiscard]] const std::string& name(std::uint32_t id) const {
    return names_[id];
  }
  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

  /// `ids` sorted by name: the export order.
  void sort_by_name(std::vector<std::uint32_t>& ids) const {
    const auto by_name = [this](std::uint32_t a, std::uint32_t b) {
      return names_[a] < names_[b];
    };
    std::sort(ids.begin(), ids.end(), by_name);
  }

 private:
  std::deque<std::string> names_;  // a deque: the index keys view into it
  std::unordered_map<std::string_view, std::uint32_t> index_;
};

NameTable& counter_names() {
  static NameTable table;
  return table;
}

NameTable& histogram_names() {
  static NameTable table;
  return table;
}

}  // namespace

CounterId::CounterId(std::string_view name)
    : index_(counter_names().intern(name)) {}

HistogramId::HistogramId(std::string_view name)
    : index_(histogram_names().intern(name)) {}

// ---------------------------------------------------------------------------
// MetricsRegistry

void MetricsRegistry::grow_counters(std::uint32_t index) {
  // Sized to the whole table, so a registry grows about once per run.
  counters_.resize(std::max<std::size_t>(index + 1, counter_names().size()));
}

void MetricsRegistry::grow_histograms(std::uint32_t index) {
  histograms_.resize(
      std::max<std::size_t>(index + 1, histogram_names().size()));
}

std::uint64_t MetricsRegistry::begin_span(std::string_view op,
                                          std::string_view peer, SimTime at,
                                          std::uint64_t parent) {
  const std::uint64_t id = next_span_id_++;
  ++spans_started_;
  OpenSpan* open = nullptr;
  if (!span_node_stash_.empty()) {
    // Steady state: reuse a parked node — the contained Span's strings
    // keep their capacity, so the copies below allocate nothing.
    auto node = std::move(span_node_stash_.back());
    span_node_stash_.pop_back();
    node.key() = id;
    open = &open_spans_.insert(std::move(node)).position->second;
  } else {
    open = &open_spans_.try_emplace(id).first->second;
  }
  open->retainable = spans_.size() < span_cap_;
  Span& span = open->span;
  span.id = id;
  span.parent = parent;
  if (open->retainable) {
    span.op.assign(op);
    span.peer.assign(peer);
  }
  span.start = at;
  span.end = at;
  return id;
}

void MetricsRegistry::end_span(std::uint64_t id, SimTime at,
                               std::string_view outcome) {
  const auto it = open_spans_.find(id);
  if (it == open_spans_.end()) return;  // unknown or already closed
  ++spans_finished_;
  auto node = open_spans_.extract(it);
  OpenSpan& open = node.mapped();
  if (open.retainable && spans_.size() < span_cap_) {
    Span& span = open.span;
    span.end = at;
    span.outcome = std::string{outcome};
    spans_.push_back(std::move(span));  // steals buffers: pre-cap only
  } else {
    ++spans_dropped_;
  }
  span_node_stash_.push_back(std::move(node));
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const std::uint32_t index : other.touched_counters_) {
    touch_counter(index).value += other.counters_[index].value;
  }
  for (const std::uint32_t index : other.touched_histograms_) {
    touch_histogram(index).histogram.merge(other.histograms_[index].histogram);
  }
  spans_started_ += other.spans_started_;
  spans_finished_ += other.spans_finished_;
  spans_dropped_ += other.spans_dropped_;
  for (const Span& span : other.spans_) {
    if (spans_.size() < span_cap_) {
      spans_.push_back(span);
    } else {
      ++spans_dropped_;
    }
  }
}

namespace {
/// Minimal JSON string escaping (the names used here are ASCII identifiers,
/// but be correct anyway).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}
}  // namespace

std::string MetricsRegistry::to_json() const {
  // Built with sequential appends only: `"literal" + std::to_string(...)`
  // trips GCC 12's -Wrestrict false positive at -O2, and appends skip the
  // temporaries anyway.
  std::string out;
  const auto field = [&out](const char* key, auto value) {
    out += key;
    out += std::to_string(value);
  };
  out += "{\n  \"counters\": {";
  bool first = true;
  std::vector<std::uint32_t> ids = touched_counters_;
  counter_names().sort_by_name(ids);
  for (const std::uint32_t index : ids) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += json_escape(counter_names().name(index));
    out += "\": ";
    out += std::to_string(counters_[index].value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  ids = touched_histograms_;
  histogram_names().sort_by_name(ids);
  for (const std::uint32_t index : ids) {
    const Histogram& h = histograms_[index].histogram;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += json_escape(histogram_names().name(index));
    out += "\": {";
    field("\"count\": ", h.count());
    field(", \"sum\": ", h.sum());
    field(", \"min\": ", h.min());
    field(", \"max\": ", h.max());
    field(", \"p50\": ", h.percentile(0.50));
    field(", \"p90\": ", h.percentile(0.90));
    field(", \"p95\": ", h.percentile(0.95));
    field(", \"p99\": ", h.percentile(0.99));
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (const auto& [lower, count] : h.nonzero_buckets()) {
      if (!first_bucket) out += ", ";
      first_bucket = false;
      field("[", lower);
      field(", ", count);
      out += "]";
    }
    out += "]}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"spans\": {\n";
  field("    \"started\": ", spans_started_);
  field(",\n    \"finished\": ", spans_finished_);
  field(",\n    \"dropped\": ", spans_dropped_);
  field(",\n    \"cap\": ", span_cap_);
  out += ",\n    \"log\": [";
  first = true;
  for (const Span& span : spans_) {
    out += first ? "\n" : ",\n";
    first = false;
    field("      {\"id\": ", span.id);
    field(", \"parent\": ", span.parent);
    out += ", \"op\": \"";
    out += json_escape(span.op);
    out += "\", \"peer\": \"";
    out += json_escape(span.peer);
    out += "\"";
    field(", \"start_ns\": ", span.start.count_nanos());
    field(", \"end_ns\": ", span.end.count_nanos());
    out += ", \"outcome\": \"";
    out += json_escape(span.outcome);
    out += "\"}";
  }
  out += first ? "]\n" : "\n    ]\n";
  out += "  }\n}";
  return out;
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream file{path};
  if (!file) return false;
  file << to_json() << "\n";
  return static_cast<bool>(file);
}

void MetricsRegistry::clear() {
  for (const std::uint32_t index : touched_counters_) {
    counters_[index] = CounterSlot{};
  }
  touched_counters_.clear();
  for (const std::uint32_t index : touched_histograms_) {
    histograms_[index] = HistogramSlot{};
  }
  touched_histograms_.clear();
  spans_.clear();
  open_spans_.clear();
  span_node_stash_.clear();
  next_span_id_ = 1;
  spans_started_ = 0;
  spans_finished_ = 0;
  spans_dropped_ = 0;
}

MetricsRegistry& global() {
  static MetricsRegistry registry;
  return registry;
}

std::optional<std::string> extract_metrics_out(int& argc, char** argv) {
  constexpr std::string_view kFlag = "--metrics-out=";
  std::optional<std::string> path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg.substr(0, kFlag.size()) == kFlag) {
      path = std::string{arg.substr(kFlag.size())};
      continue;  // strip: downstream flag parsers must not see it
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;
  return path;
}

}  // namespace weakset::obs
