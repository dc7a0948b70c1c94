#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <unordered_map>

#include "util/json.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::open(std::string name, std::uint32_t parent,
                           std::uint32_t lane, bool ledger) {
  if (!enabled_) return 0;
  SpanRecord span;
  span.parent = parent;
  span.lane = lane;
  span.ledger = ledger;
  span.name = std::move(name);
  const std::lock_guard<std::mutex> lock(mutex_);
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.start = now_s();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  if (id == 0) return;
  const double end = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = end;
}

std::vector<SpanRecord> Tracer::spans(std::uint32_t first_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (first_id == 0) first_id = 1;
  if (first_id > spans_.size()) return {};
  return {spans_.begin() + (first_id - 1), spans_.end()};
}

std::uint32_t Tracer::next_id() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::uint32_t>(spans_.size() + 1);
}

Span::Span(Tracer* tracer, std::string name, std::uint32_t parent,
           std::uint32_t lane, bool ledger)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    id_ = tracer_->open(std::move(name), parent, lane, ledger);
  }
}

Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > run_end) {
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (open) covered += run_end - run_start;
  return covered;
}

Ledger build_ledger(const std::vector<SpanRecord>& spans, std::size_t lanes,
                    double section_wall_s) {
  std::unordered_map<std::uint32_t, std::vector<std::pair<double, double>>>
      children;
  for (const SpanRecord& span : spans) {
    if (span.ledger && span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  Ledger ledger;
  ledger.wall_s = static_cast<double>(lanes) * section_wall_s;
  std::map<std::string, PhaseTotal> by_name;
  for (const SpanRecord& span : spans) {
    if (!span.ledger) continue;
    PhaseTotal& phase = by_name[span.name];
    phase.name = span.name;
    ++phase.count;
    phase.total_s += span.duration();
    double covered = 0.0;
    if (const auto it = children.find(span.id); it != children.end()) {
      covered = union_length(it->second);
    }
    phase.self_s += span.duration() - covered;
    if (span.parent == 0) ledger.phases_s += span.duration();
  }
  ledger.unaccounted_s = ledger.wall_s - ledger.phases_s;
  for (auto& [name, phase] : by_name) ledger.phases.push_back(phase);
  std::sort(ledger.phases.begin(), ledger.phases.end(),
            [](const PhaseTotal& a, const PhaseTotal& b) {
              return a.total_s > b.total_s;
            });
  return ledger;
}

void write_spans(const std::vector<SpanRecord>& spans,
                 const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const SpanRecord& span : spans) {
    wsnex::util::Json line = wsnex::util::Json::object();
    line.set("id", static_cast<std::size_t>(span.id));
    line.set("parent", static_cast<std::size_t>(span.parent));
    line.set("lane", static_cast<std::size_t>(span.lane));
    line.set("ledger", span.ledger);
    line.set("name", span.name);
    line.set("start", span.start);
    line.set("end", span.end);
    out << line.dump() << '\n';
  }
}

}  // namespace perfbench
