#include "distributed/comm.hpp"

#include <algorithm>
#include <cstring>

#include "distributed/fabric_error.hpp"
#include "util/check.hpp"

namespace disttgl::dist {

Comm::Comm(std::size_t ranks, Options opts) : ranks_(ranks), opts_(opts) {
  DT_CHECK_GT(ranks, 0u);
}

std::size_t Comm::chunk_elems_for(std::size_t size) const {
  if (size == 0) return 1;
  if (opts_.chunk_elems != 0) return opts_.chunk_elems;
  return (size + ranks_ - 1) / ranks_;
}

std::size_t Comm::num_chunks_for(std::size_t size) const {
  const std::size_t c = chunk_elems_for(size);
  return (size + c - 1) / c;
}

std::uint64_t Comm::ring_bytes(std::size_t size) const {
  return static_cast<std::uint64_t>(2.0 * (ranks_ - 1) / ranks_ * size *
                                    sizeof(float) * ranks_);
}

void Comm::check_uniform_size(const Staging& s, std::size_t size) {
  for (std::size_t r = 0; r < s.rows; ++r)
    DT_CHECK_MSG(s.sizes[r] == size, "allreduce size mismatch: rank "
                                         << s.row << " has " << size
                                         << ", rank " << r << " has "
                                         << s.sizes[r]);
}

void Comm::allreduce_mean(std::size_t rank, std::span<float> data) {
  DT_CHECK_LT(rank, ranks_);
  if (ranks_ == 1) return;
  const std::size_t size = data.size();
  const Staging s = stage(rank, size);

  // Phase 1: deposit the contribution in this rank's fixed staging row.
  s.sizes[s.row] = size;
  if (size > 0)
    std::memcpy(s.staged + s.row * s.stride, data.data(),
                size * sizeof(float));
  if (rank == 0) record(ring_bytes(size));
  sync(rank);

  // Phase 2: the means land in the shared result row.
  reduce(rank, size, s);
  sync(rank);

  // Phase 3: allgather — copy the result row out. No closing barrier: a
  // rank re-entering can only write its own staging row (not read
  // here), and nobody can reach the next phase 2 (which overwrites the
  // result row) until every rank has deposited — i.e. finished this
  // copy.
  if (size > 0)
    std::memcpy(data.data(), s.result, size * sizeof(float));
}

// Reduce-scatter: this rank reduces only its owned chunks, each element
// a left fold in double over the rows in fixed rank order
// (deterministic), rounded once to float.
void Comm::reduce(std::size_t rank, std::size_t size, const Staging& s) {
  check_uniform_size(s, size);
  const std::size_t chunk = chunk_elems_for(size);
  const std::size_t num_chunks = num_chunks_for(size);
  const double inv = 1.0 / static_cast<double>(ranks_);
  for (std::size_t c = rank; c < num_chunks; c += ranks_) {
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(lo + chunk, size);
    for (std::size_t i = lo; i < hi; ++i) {
      double acc = 0.0;
      for (std::size_t r = 0; r < s.rows; ++r)
        acc += static_cast<double>(s.staged[r * s.stride + i]);
      s.result[i] = static_cast<float>(acc * inv);
    }
  }
}

ThreadComm::ThreadComm(std::size_t ranks) : ThreadComm(ranks, Options{}) {}

ThreadComm::ThreadComm(std::size_t ranks, Options opts)
    : Comm(ranks, opts), barrier_(ranks, opts.wait) {
  tokens_.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) tokens_.emplace_back(barrier_);
  sizes_.assign(ranks, 0);
}

void ThreadComm::reserve(std::size_t max_elems) {
  if (max_elems <= max_elems_) return;
  staged_.assign(ranks_ * max_elems, 0.0f);
  result_.assign(max_elems, 0.0f);
  max_elems_ = max_elems;
}

void ThreadComm::sync(std::size_t rank) {
  if (!tokens_[rank].wait())
    throw_fabric(FabricErrc::kAborted, "thread collective aborted by a peer");
}

// Payload sizes are identical across ranks by contract, so every rank
// evaluates the same predicate here and either all enter the grow phase
// or none do (max_elems_ only changes inside it, between barriers).
Comm::Staging ThreadComm::stage(std::size_t rank, std::size_t size) {
  if (size > max_elems_) {
    sync(rank);
    if (rank == 0) reserve(size);
    sync(rank);
  }
  return {staged_.data(), max_elems_, result_.data(), sizes_.data(), ranks_,
          rank};
}

void ThreadComm::record(std::uint64_t bytes) {
  num_calls_.fetch_add(1, std::memory_order_relaxed);
  logical_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace disttgl::dist
