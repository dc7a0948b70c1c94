// In-memory span recorder and the wall-clock ledger built from it.
//
// wsnex_bench records a span around each call it makes into a product
// layer (name, start, end, parent, lane). Spans stay in memory and are
// written out once the run ends. A lane is one thread of wsnex_bench that
// owns top-level spans: the main thread of a campaign pass, or one client
// of the serve closed loop. Spans marked `ledger = false` are component
// calls made only to compute a subtraction (a progress-off rerun, a
// decorated search); they are reported as layer metrics but kept out of
// the wall-clock ledger.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady_clock, i.e. CLOCK_MONOTONIC on Linux).
double now_s();

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = top level of its lane
  std::uint32_t lane = 0;
  bool ledger = true;
  std::string name;
  double start = 0.0;
  double end = 0.0;

  double duration() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when tracing is off).
  std::uint32_t open(std::string name, std::uint32_t parent,
                     std::uint32_t lane, bool ledger);
  void close(std::uint32_t id);

  /// Spans recorded since `first_id` (inclusive), copied.
  std::vector<SpanRecord> spans(std::uint32_t first_id = 1) const;
  /// Id the next span will get.
  std::uint32_t next_id() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. A null tracer or a disabled one records nothing.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::uint32_t parent = 0,
       std::uint32_t lane = 0, bool ledger = true);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Total length covered by a set of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals);

struct PhaseTotal {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;  ///< Σ span durations
  double self_s = 0.0;   ///< Σ (duration − part covered by child spans)
};

/// The wall clock of a traced section split into the top-level spans of
/// each lane plus what no span covers. Invariant (checked by the tests):
/// phases_s + unaccounted_s == wall_s.
struct Ledger {
  double wall_s = 0.0;         ///< lanes × section wall
  double phases_s = 0.0;       ///< Σ top-level ledger spans
  double unaccounted_s = 0.0;  ///< wall_s − phases_s
  std::vector<PhaseTotal> phases;  ///< every ledger span name
};

/// Builds the ledger of a section in which `lanes` lanes each ran for
/// `section_wall_s`. Only spans with ledger == true count.
Ledger build_ledger(const std::vector<SpanRecord>& spans, std::size_t lanes,
                    double section_wall_s);

/// Writes one JSON object per span to `path` (best effort).
void write_spans(const std::vector<SpanRecord>& spans,
                 const std::string& path);

}  // namespace perfbench
