#pragma once

/// \file events.hpp
/// Bounded lock-free ring of structured telemetry events.
///
/// The ring is a broadcast buffer: writers publish fixed-size POD events and
/// receive a globally monotone sequence number; readers poll with a cursor
/// (`read_since`) and never block writers. When the ring wraps, the oldest
/// events are overwritten — readers that fell behind observe a gap and the
/// per-read `dropped` count tells them how many events they missed, so
/// backpressure degrades to loss-with-accounting instead of blocking the
/// optimization hot path.
///
/// Concurrency: each slot is guarded by a seqlock-style version stamp and the
/// payload is stored as release/acquire atomic words (plain moves on x86, no
/// standalone fences), so concurrent publish/read is free of data races and
/// checkable by ThreadSanitizer, without any mutex on the publish path. A
/// writer claims its slot with one CAS on the stamp; a writer that laps a
/// slot still being written drops its event rather than wait. Publishing
/// never waits on readers or other writers, apart from a best-effort waiter
/// notification.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/json.hpp"

namespace wsnex::util::events {

/// Event taxonomy. Lifecycle events describe jobs/scenarios moving through
/// the scheduler; `kGeneration` carries optimizer progress (one event per
/// campaign progress record, not per generation).
enum class Kind : std::uint8_t {
  kJobQueued = 0,
  kJobStarted,
  kJobFinished,
  kUnitStarted,
  kUnitFinished,
  kUnitRetried,
  kScenarioStarted,
  kScenarioFinished,
  kGeneration,
  kDeadlineExceeded,
  kCacheDegraded,
};

/// Stable wire name for a kind (used in JSONL output).
const char* kind_name(Kind kind);

/// Fixed-size POD event record. String fields are NUL-terminated and
/// truncated on copy; numeric progress fields are meaningful only for
/// `kGeneration` (zero otherwise).
struct Event {
  std::uint64_t seq = 0;  ///< Assigned by the ring at publish; starts at 1.
  double time_s = 0.0;    ///< Seconds since the ring was created.
  Kind kind = Kind::kJobQueued;
  char job[64] = {};       ///< Job id ("" for standalone campaigns).
  char scenario[64] = {};  ///< Scenario/unit name ("" for job-level events).
  char detail[96] = {};    ///< Free text: error summary, request id, state.
  // Per-generation optimizer progress (kGeneration only):
  std::uint64_t generation = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t archive_size = 0;
  std::uint64_t feasible = 0;
  double hypervolume = 0.0;
  double evals_per_s = 0.0;
};

static_assert(std::is_trivially_copyable_v<Event>,
              "Event must stay POD: the ring copies it word-wise");

/// Builds an event with the string fields copied (and truncated if needed).
Event make_event(Kind kind, std::string_view job, std::string_view scenario,
                 std::string_view detail);

/// One event as a JSON object (kind serialized by name, progress fields only
/// when the kind carries them).
Json event_to_json(const Event& event);

/// Serializes events as JSON Lines (one object per line, each '\n'-terminated).
std::string events_to_jsonl(const std::vector<Event>& batch);

/// Bounded multi-writer / multi-reader broadcast ring. Capacity is rounded up
/// to a power of two. Thread-safe; publish never blocks on readers.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity = 1024);

  /// Publishes a copy of `event` (its `seq` and `time_s` are assigned here).
  /// Returns the assigned sequence number.
  std::uint64_t publish(Event event);

  /// Appends to `out` every retained event with sequence > `since`, in
  /// ascending sequence order. `*dropped` (when provided) is set to the
  /// number of events this call skipped because they were overwritten by
  /// ring wrap, dropped by a writer that lapped a slot mid-write, or torn
  /// by a concurrent writer. Returns the new cursor: the highest sequence
  /// observed, or `since` if nothing newer exists.
  std::uint64_t read_since(std::uint64_t since, std::vector<Event>& out,
                           std::uint64_t* dropped = nullptr) const;

  /// Highest sequence number published so far (0 if none).
  std::uint64_t last_seq() const;

  /// Number of events that have been overwritten by ring wrap so far.
  std::uint64_t overwritten() const;

  /// Blocks until an event with sequence > `since` exists or `timeout_s`
  /// elapses. Returns true if new events are available.
  bool wait_for(std::uint64_t since, double timeout_s) const;

  std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::size_t kPayloadWords = (sizeof(Event) + 7) / 8;
  /// Words per slot: a stamp (2*seq while valid, 2*seq-1 mid-write), then
  /// the event payload.
  static constexpr std::size_t kSlotWords = 1 + kPayloadWords;
  struct FreeWords {
    void operator()(std::uint64_t* words) const;
  };

  /// Word `i` of `slot`, accessed atomically.
  std::atomic_ref<std::uint64_t> word(std::size_t slot, std::size_t i) const {
    return std::atomic_ref<std::uint64_t>(words_[slot * kSlotWords + i]);
  }

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  /// calloc'd slot storage. Every access goes through word(), so slots
  /// never published stay untouched zero pages: a ring's resident memory
  /// follows the events published into it, not its capacity (the serve
  /// daemon keeps one ring per job for its lifetime).
  std::unique_ptr<std::uint64_t[], FreeWords> words_;
  std::atomic<std::uint64_t> next_{0};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex wait_mutex_;
  mutable std::condition_variable wait_cv_;
  mutable std::atomic<int> waiters_{0};
};

}  // namespace wsnex::util::events
