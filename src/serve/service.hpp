// Long-running counting service: one writer thread steps a live SimWorld,
// many reader threads answer per-checkpoint count/verdict queries.
//
// The published-counts table is a seqlock: the stepping thread bumps a
// sequence number to odd, stores the new values with release writes, then
// bumps it to the next even value. Readers are lock-free and never block
// the writer — they acquire-load the table between two equal even
// sequence reads and retry on a torn window. Every cell is a std::atomic
// and no standalone fence is needed, so even a torn read (discarded by the
// retry loop) is not a data race; the structure is TSan-clean by
// construction.
//
// A served step costs what changed, not what exists. The protocol keeps
// its global aggregates (live total, active/stable counts, markers in
// flight) current as counts change and lists the checkpoints whose cell
// changed; each publish writes the scalar status plus only those cells.
// Every other cell keeps its last published value, so a reader still sees
// one full, consistent view per publish. The table is kept twice, each
// copy with its own status: most steps change no cell and rewrite only the
// front copy's status, and a step that changes cells writes them to the
// back copy and swaps the two. A reader copying the cells is sent back
// only if two cell-changing steps land within its read, so a query's cost
// does not depend on how fast the world steps.
//
// Failure is a published state, not std::terminate: an exception on the
// stepping thread republishes the last consistent view marked `failed`
// (and `finished`), keeps the message for error(), and makes finished()
// true so every wait loop ends.
//
// Determinism contract: the service changes WHEN counts are observed, not
// what they are. The stepping thread drives the same SimWorld the batch
// runner uses, so a served run's event stream and final verdicts are
// bit-identical to `run_scenario` on the same config — queries are a
// read-only window onto a deterministic history.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/world.hpp"

namespace ivc::serve {

struct CheckpointCounts {
  std::int64_t local_total = 0;  // the checkpoint's own count view
  bool active = false;
  bool stable = false;
};

// The scalar part of a published view.
struct ServiceStatus {
  std::uint64_t step = 0;
  std::int64_t now_millis = 0;
  std::int64_t live_total = 0;  // protocol's live population estimate
  std::int64_t truth = 0;       // oracle ground truth at the same step
  bool all_stable = false;
  bool quiescent = false;
  bool finished = false;  // stepping is over: converged, time limit, or failed
  bool failed = false;    // a step threw; CountingService::error() says why
};

// One consistent reading of the service: everything a checkpoint-count
// query can ask, captured at a single publish.
struct ServiceView : ServiceStatus {
  std::vector<CheckpointCounts> checkpoints;  // protocol checkpoint order
};

// One cell of a publish: the new counts of the checkpoint at `index`.
struct CellUpdate {
  std::uint32_t index = 0;  // protocol checkpoint order
  CheckpointCounts counts;
};

// Seqlock-published table. One writer (the stepping thread), any number of
// lock-free readers. `init` must be called before the first concurrent
// reader (the cell arrays are sized once and never reallocated).
//
// The view is kept twice. Readers copy the front table; a publish that
// changes no cell rewrites only the front table's status, and one that
// changes cells brings the back table up to date and makes it the front.
// A reader's copy of the cells is therefore overwritten, and retried, only
// when two cell-changing publishes land within one read.
class PublishedCounts {
 public:
  void init(std::size_t checkpoint_count);
  [[nodiscard]] std::size_t checkpoint_count() const { return cell_count_; }

  // Writer thread only: stores `status` and the listed cells (each index
  // at most once); every other cell keeps its last published value. Never
  // allocates, never throws.
  void publish(const ServiceStatus& status, std::span<const CellUpdate> cells) noexcept;
  [[nodiscard]] ServiceView read() const;  // any thread

 private:
  // One copy of the view, under two seqlocks: `cells_seq` is odd while the
  // writer rewrites the cells (and the status with them), `status_seq`
  // while it rewrites the status. Each cell is one packed word, so a
  // reader copies it with a single load.
  struct Table {
    std::atomic<std::uint64_t> cells_seq{0};
    std::atomic<std::uint64_t> status_seq{0};
    std::atomic<std::uint64_t> step{0};
    std::atomic<std::int64_t> now_millis{0};
    std::atomic<std::int64_t> live_total{0};
    std::atomic<std::int64_t> truth{0};
    std::atomic<std::uint8_t> all_stable{0};
    std::atomic<std::uint8_t> quiescent{0};
    std::atomic<std::uint8_t> finished{0};
    std::atomic<std::uint8_t> failed{0};
    std::unique_ptr<std::atomic<std::uint64_t>[]> cells;

    void write_status(const ServiceStatus& status) noexcept;
    void read_status(ServiceStatus& status) const;
  };

  Table tables_[2];
  std::atomic<std::uint32_t> front_{0};
  // Cells the last cell-changing publish wrote to the front table only;
  // the next one copies them into the back table first.
  std::unique_ptr<std::uint32_t[]> behind_;
  std::size_t behind_count_ = 0;
  std::size_t cell_count_ = 0;
};

// Publishes `world`'s status plus every checkpoint's cell (`all_cells`) or
// only the cells its protocol lists as changed, then clears that list, and
// returns the published status. `scratch` collects the cell updates; with
// capacity for every checkpoint it never reallocates. This is the stepping
// thread's publish, callable step by step from tests.
ServiceStatus publish_world(SimWorld& world, PublishedCounts& counts,
                            std::vector<CellUpdate>& scratch, bool all_cells);

// Owns a SimWorld and a stepping thread; query() is safe from any number
// of concurrent threads while the world steps.
class CountingService {
 public:
  explicit CountingService(const experiment::ScenarioConfig& config);
  ~CountingService();

  CountingService(const CountingService&) = delete;
  CountingService& operator=(const CountingService&) = delete;

  // Spawns the stepping thread. The world steps until it converges (or
  // hits its time limit), a step throws, or stop() is called; a final view
  // is published in every case.
  void start();
  // Signals the stepping thread and joins it. Idempotent.
  void stop();

  // Latest published view; lock-free, callable from any thread.
  [[nodiscard]] ServiceView query() const { return counts_.read(); }
  // True once stepping is over for good: the world converged or hit its
  // time limit, or a step threw (the published view is then `failed`).
  [[nodiscard]] bool finished() const { return finished_.load(std::memory_order_acquire); }
  // What the failed step threw; empty otherwise. Read it only once
  // finished() is true or after stop().
  [[nodiscard]] const std::string& error() const { return error_; }

  // Direct world access — only safe before start() or after stop().
  [[nodiscard]] SimWorld& world() { return world_; }

 private:
  void run();  // stepping-thread body

  SimWorld world_;
  PublishedCounts counts_;
  // Stepping-thread state: the publish scratch (sized once, so a step
  // allocates nothing), the last published status and the failure message.
  std::vector<CellUpdate> updates_;
  ServiceStatus status_;
  std::string error_;
  std::thread stepper_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> finished_{false};
  bool started_ = false;
};

}  // namespace ivc::serve
