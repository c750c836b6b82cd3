#include "memory/daemon.hpp"

#include "distributed/fabric_error.hpp"
#include "util/check.hpp"

namespace disttgl {

// The bounded-spin → park slot waits live in util/wait.hpp now (shared
// with the collective barrier and the process fabric); the spin budget
// arrives through DaemonConfig::wait instead of a hardcoded constant.
//
// Abort protocol: abort() stores kStatusPoison into every slot status
// word (and a sentinel into the round counter) with a wake. Trainer-side
// waits and posts observe the poison and throw kAborted; the daemon
// thread observes it and exits its serve loop. Posts are CAS transitions
// so a post racing an abort can never resurrect a poisoned word — the
// only writer that does not CAS is abort() itself, and everything it
// clobbers is wreckage by definition.
//
// A poisoned word alone does not make unwinding safe: the daemon may
// still be inside read_into/write on the very buffers a trainer lent
// it, and its failed CAS gives that trainer no happens-before. So every
// kAborted throw first acquires `running_`, which the daemon thread
// clears with release as it leaves run() (and which is already clear
// for a daemon that was never started). The steady state never touches
// it.

namespace {
// All-ones round counter = aborted (a real schedule never gets close).
constexpr std::uint64_t kRoundsPoison = ~std::uint64_t{0};

void poison_word(std::atomic<int>& word) {
  word.store(kStatusPoison, std::memory_order_release);
  word.notify_all();
}
}  // namespace

MemoryDaemon::MemoryDaemon(MemoryState& state, DaemonConfig config)
    : state_(state), config_(std::move(config)) {
  DT_CHECK_GT(config_.i, 0u);
  DT_CHECK_GT(config_.j, 0u);
  DT_CHECK_LE(config_.start_round, config_.reset_before_round.size());
  rounds_served_.store(config_.start_round, std::memory_order_relaxed);
  const std::size_t n = config_.i * config_.j;
  slots_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) slots_.push_back(std::make_unique<Slot>());
}

MemoryDaemon::~MemoryDaemon() {
  if (started_ && thread_.joinable()) thread_.join();
}

void MemoryDaemon::start() {
  DT_CHECK(!started_);
  started_ = true;
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] {
    run();
    running_.store(false, std::memory_order_release);
    running_.notify_all();
  });
}

void MemoryDaemon::join() {
  DT_CHECK(started_);
  if (thread_.joinable()) thread_.join();
}

void MemoryDaemon::abort() {
  aborted_.store(true, std::memory_order_release);
  for (auto& slot : slots_) {
    poison_word(slot->read_status);
    poison_word(slot->write_status);
  }
  rounds_served_.store(kRoundsPoison, std::memory_order_release);
  rounds_served_.notify_all();
}

void MemoryDaemon::throw_aborted(const char* what) {
  while (running_.load(std::memory_order_acquire))
    running_.wait(true, std::memory_order_acquire);
  dist::throw_fabric(dist::FabricErrc::kAborted, what);
}

void MemoryDaemon::read(std::size_t rank, std::span<const NodeId> nodes,
                        MemorySlice& out) {
  DT_CHECK_LT(rank, slots_.size());
  Slot& slot = *slots_[rank];
  // The slot must be free (previous request fully served).
  if (!await_status_abortable(slot.read_status, 0, config_.wait))
    throw_aborted("memory daemon aborted (read slot)");
  slot.read_nodes = nodes.data();
  slot.read_count = nodes.size();
  slot.read_out = &out;
  if (!try_post_status(slot.read_status, 0, 1))
    throw_aborted("memory daemon aborted (read post)");
  // Gathered into `out`.
  if (!await_status_abortable(slot.read_status, 0, config_.wait))
    throw_aborted("memory daemon aborted (read wait)");
}

void MemoryDaemon::write(std::size_t rank, const MemoryWrite& w) {
  DT_CHECK_LT(rank, slots_.size());
  Slot& slot = *slots_[rank];
  if (!await_status_abortable(slot.write_status, 0, config_.wait))
    throw_aborted("memory daemon aborted (write slot)");
  slot.write_req = &w;
  if (!try_post_status(slot.write_status, 0, 1))
    throw_aborted("memory daemon aborted (write post)");
  // Applied.
  if (!await_status_abortable(slot.write_status, 0, config_.wait))
    throw_aborted("memory daemon aborted (write wait)");
}

void MemoryDaemon::await_rounds(std::size_t rounds) {
  for (;;) {
    if (aborted_.load(std::memory_order_acquire))
      throw_aborted("memory daemon aborted (await_rounds)");
    const std::uint64_t cur = rounds_served_.load(std::memory_order_acquire);
    if (cur >= rounds) return;
    rounds_served_.wait(cur, std::memory_order_acquire);
  }
}

std::vector<std::string> MemoryDaemon::trace() const {
  DT_CHECK(!thread_.joinable());  // only valid after join()
  return trace_;
}

namespace {
// "R3"/"W3"-style trace entry, built without `"R" + std::to_string(r)`:
// that operator+(const char*, string&&) form trips GCC 12's -Wrestrict
// false positive (GCC bug 105651) under -Werror.
std::string trace_op(char tag, std::size_t rank) {
  std::string op = std::to_string(rank);
  op.insert(op.begin(), tag);
  return op;
}
}  // namespace

void MemoryDaemon::run() {
  const std::size_t rounds = config_.reset_before_round.size();
  for (std::size_t round = config_.start_round; round < rounds; ++round) {
    const std::size_t sub = round % config_.j;
    const std::size_t base = sub * config_.i;
    // Serve all reads of this subgroup, then all writes — the
    // (R..R)(W..W) bracket of §3.3. Requests within a bracket have no
    // ordering requirement; we serve them by rank.
    for (std::size_t r = base; r < base + config_.i; ++r) {
      Slot& slot = *slots_[r];
      if (!await_status_abortable(slot.read_status, 1, config_.wait)) return;
      // Epoch-wrap reset, deferred until the round's first read request
      // arrives: a checkpoint captured between rounds (await_rounds
      // happens-before any round-r post) can then never race the zeroing.
      if (r == base && config_.reset_before_round[round] != 0) state_.reset();
      state_.read_into({slot.read_nodes, slot.read_count}, *slot.read_out,
                       config_.gather_pool);
      slot.read_nodes = nullptr;
      slot.read_count = 0;
      slot.read_out = nullptr;
      if (trace_enabled_) trace_.push_back(trace_op('R', r));
      if (!try_post_status(slot.read_status, 1, 0)) return;
    }
    for (std::size_t r = base; r < base + config_.i; ++r) {
      Slot& slot = *slots_[r];
      if (!await_status_abortable(slot.write_status, 1, config_.wait)) return;
      state_.write(*slot.write_req, config_.gather_pool);
      slot.write_req = nullptr;
      if (trace_enabled_) trace_.push_back(trace_op('W', r));
      if (!try_post_status(slot.write_status, 1, 0)) return;
    }
    rounds_served_.store(round + 1, std::memory_order_release);
    rounds_served_.notify_all();
  }
}

}  // namespace disttgl
