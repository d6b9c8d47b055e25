#include "serve/service.hpp"

#include <exception>

#include "util/assert.hpp"

namespace ivc::serve {
namespace {

// A published cell: the local total in the upper 62 bits, then the active
// and stable bits.
std::uint64_t pack(const CheckpointCounts& counts) noexcept {
  constexpr std::int64_t kLimit = std::int64_t{1} << 61;
  IVC_ASSERT(counts.local_total >= -kLimit && counts.local_total < kLimit);
  return (static_cast<std::uint64_t>(counts.local_total) << 2) | (counts.active ? 2u : 0u) |
         (counts.stable ? 1u : 0u);
}

CheckpointCounts unpack(std::uint64_t word) {
  return CheckpointCounts{static_cast<std::int64_t>(word) >> 2, (word & 2u) != 0,
                          (word & 1u) != 0};
}

}  // namespace

void PublishedCounts::init(std::size_t checkpoint_count) {
  for (Table& table : tables_) {
    table.cells = std::make_unique<std::atomic<std::uint64_t>[]>(checkpoint_count);
  }
  behind_ = std::make_unique<std::uint32_t[]>(checkpoint_count);
  behind_count_ = 0;
  cell_count_ = checkpoint_count;
}

// Release stores order every value after the odd sequence numbers: a reader
// that acquires any of them also sees the odd number (or a later one) on its
// closing check, and retries. No standalone fence, which ThreadSanitizer
// cannot model.
void PublishedCounts::Table::write_status(const ServiceStatus& status) noexcept {
  constexpr auto kRelease = std::memory_order_release;
  const std::uint64_t s = status_seq.load(std::memory_order_relaxed);
  status_seq.store(s + 1, std::memory_order_relaxed);
  step.store(status.step, kRelease);
  now_millis.store(status.now_millis, kRelease);
  live_total.store(status.live_total, kRelease);
  truth.store(status.truth, kRelease);
  all_stable.store(status.all_stable ? 1 : 0, kRelease);
  quiescent.store(status.quiescent ? 1 : 0, kRelease);
  finished.store(status.finished ? 1 : 0, kRelease);
  failed.store(status.failed ? 1 : 0, kRelease);
  status_seq.store(s + 2, kRelease);
}

void PublishedCounts::Table::read_status(ServiceStatus& status) const {
  constexpr auto kAcquire = std::memory_order_acquire;
  for (;;) {
    const std::uint64_t s1 = status_seq.load(kAcquire);
    if (s1 & 1u) continue;  // writer mid-publish; spin

    status.step = step.load(kAcquire);
    status.now_millis = now_millis.load(kAcquire);
    status.live_total = live_total.load(kAcquire);
    status.truth = truth.load(kAcquire);
    status.all_stable = all_stable.load(kAcquire) != 0;
    status.quiescent = quiescent.load(kAcquire) != 0;
    status.finished = finished.load(kAcquire) != 0;
    status.failed = failed.load(kAcquire) != 0;

    if (status_seq.load(std::memory_order_relaxed) == s1) return;
  }
}

void PublishedCounts::publish(const ServiceStatus& status,
                              std::span<const CellUpdate> cells) noexcept {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  constexpr auto kRelease = std::memory_order_release;
  const std::uint32_t front = front_.load(kRelaxed);
  if (cells.empty()) {
    tables_[front].write_status(status);
    return;
  }

  // The back table lags the front by the cells of the last cell-changing
  // publish: copy those over, apply this publish, then swap the tables.
  IVC_ASSERT(cells.size() <= cell_count_);
  const Table& from = tables_[front];
  Table& to = tables_[front ^ 1u];
  const std::uint64_t c = to.cells_seq.load(kRelaxed);
  to.cells_seq.store(c + 1, kRelaxed);
  for (std::size_t k = 0; k < behind_count_; ++k) {
    const std::uint32_t i = behind_[k];
    to.cells[i].store(from.cells[i].load(kRelaxed), kRelease);
  }
  behind_count_ = 0;
  for (const CellUpdate& update : cells) {
    IVC_ASSERT(update.index < cell_count_);
    to.cells[update.index].store(pack(update.counts), kRelease);
    behind_[behind_count_++] = update.index;
  }
  to.write_status(status);
  to.cells_seq.store(c + 2, kRelease);
  front_.store(front ^ 1u, kRelease);
}

ServiceView PublishedCounts::read() const {
  // Acquire loads pair with publish()'s release stores and keep each
  // closing sequence check after every value read. The status is read
  // after the cells: while the cells stay unchanged, every status this
  // table holds was published with exactly these cells.
  constexpr auto kAcquire = std::memory_order_acquire;
  ServiceView view;
  view.checkpoints.resize(cell_count_);
  for (;;) {
    const Table& table = tables_[front_.load(kAcquire)];
    const std::uint64_t c1 = table.cells_seq.load(kAcquire);
    if (c1 & 1u) continue;  // a stale front the writer is rewriting; reload

    for (std::size_t i = 0; i < cell_count_; ++i) {
      view.checkpoints[i] = unpack(table.cells[i].load(kAcquire));
    }
    table.read_status(view);

    if (table.cells_seq.load(std::memory_order_relaxed) == c1) return view;
  }
}

CountingService::CountingService(const experiment::ScenarioConfig& config)
    : world_(config) {
  const std::size_t checkpoints = world_.protocol().checkpoints().size();
  counts_.init(checkpoints);
  updates_.reserve(checkpoints);
}

CountingService::~CountingService() { stop(); }

void CountingService::start() {
  if (started_) return;
  started_ = true;
  stepper_ = std::thread([this] { run(); });
}

void CountingService::stop() {
  stop_.store(true, std::memory_order_release);
  if (stepper_.joinable()) stepper_.join();
}

ServiceStatus publish_world(SimWorld& world, PublishedCounts& counts,
                            std::vector<CellUpdate>& scratch, bool all_cells) {
  counting::CountingProtocol& protocol = world.protocol();
  const auto& checkpoints = protocol.checkpoints();
  const auto add_cell = [&](const counting::Checkpoint& cp) {
    scratch.push_back({cp.node().value(), {cp.local_total(), cp.is_active(), cp.is_stable()}});
  };
  scratch.clear();
  if (all_cells) {
    for (const counting::Checkpoint& cp : checkpoints) add_cell(cp);
  } else {
    for (const roadnet::NodeId node : protocol.changed()) add_cell(checkpoints[node.value()]);
  }
  protocol.clear_changed();

  ServiceStatus status;
  status.step = world.engine().step_count();
  status.now_millis = world.engine().now().millis();
  status.live_total = protocol.live_total();
  status.truth = world.oracle().true_population();
  status.all_stable = protocol.all_stable();
  status.quiescent = protocol.quiescent();
  status.finished = world.done();
  counts.publish(status, scratch);
  return status;
}

void CountingService::run() {
  bool failed = false;
  try {
    status_ = publish_world(world_, counts_, updates_, /*all_cells=*/true);
    while (!stop_.load(std::memory_order_acquire) && !world_.done()) {
      world_.step();
      status_ = publish_world(world_, counts_, updates_, /*all_cells=*/false);
    }
  } catch (const std::exception& e) {
    failed = true;
    error_ = e.what();
  } catch (...) {
    failed = true;
    error_ = "unknown exception";
  }
  if (failed) {
    // The world may be left mid-step; readers keep the last consistent
    // counts, now marked failed.
    status_.finished = true;
    status_.failed = true;
    counts_.publish(status_, {});
  }
  if (failed || world_.done()) finished_.store(true, std::memory_order_release);
}

}  // namespace ivc::serve
