// Checkpointing: model weights + node-memory state, and the sharded
// full-training-state snapshots behind elastic recovery.
//
// M-TGNN inference needs more than the weights — the node memory and
// mailbox ARE the model's state for a given point in the event stream,
// so a deployable checkpoint carries both. Recovery needs more still:
// optimizer moments, loss subtotals, and any in-flight memory slice,
// per rank, so a restarted run replays the exact update stream.
//
// Every checkpoint file is one self-verifying container:
//
//   u32 magic "DTGL" | u32 version (2) | u32 kind |
//   u64 payload_len  | u32 FNV-1a checksum | payload
//
// with the payload built/parsed by the wire codecs (wire.hpp), so the
// corruption story is the same as the fabric control plane's: a torn
// write is kTruncated, a flipped bit is kBadChecksum, never UB or a
// silent bad load. Integers are little-endian (byte-by-byte), floats
// are bit-cast — identical encoding on any host.
//
// Writes are atomic: payload → `<path>.tmp`, fsync, rename over the
// final name, fsync the directory. A reader never observes a
// half-written file under its final name; a crash leaves at most a
// `*.tmp` orphan (swept by tools/sweep_shm.py and retain_snapshots).
//
// A full snapshot at iteration T is a shard SET under one stem
// `<dir>/ckpt_<T>`:
//
//   <stem>.core     rank 0: fingerprint, iteration, geometry, weights
//   <stem>.mem<m>   group host m: one MemoryState copy, full rows
//   <stem>.rank<r>  every rank: loss subtotals, Adam (t, m, v), and the
//                   in-flight MemorySlice when r was mid version-chain
//   <stem>.commit   rank 0, written LAST — the atomic commit point; a
//                   snapshot without its commit marker does not exist
//
// All shards carry the config fingerprint + iteration, so a mixed or
// stale set is rejected shard-by-shard (kFingerprintMismatch /
// kShapeMismatch), and find_latest_snapshot falls back to the previous
// committed set when the newest fails validation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "memory/memory_state.hpp"
#include "nn/module.hpp"

namespace disttgl {

// ---- typed errors --------------------------------------------------------

enum class CheckpointErrc : std::uint8_t {
  kIoError = 1,       // open/read/write/fsync/rename failed
  kBadMagic,          // not a DistTGL checkpoint
  kBadVersion,        // container version skew
  kBadKind,           // wrong shard kind for this reader
  kTruncated,         // short file / short payload / trailing bytes
  kBadChecksum,       // payload checksum mismatch (bit rot, torn write)
  kShapeMismatch,     // sizes in file disagree with the live model/state
  kFingerprintMismatch,  // snapshot belongs to a different run config
  kMissingFile,       // shard file absent (distinct from unreadable)
};

const char* checkpoint_errc_name(CheckpointErrc code);

// Carries the failing path and, where meaningful, the expected/got pair
// (sizes, versions, fingerprints) that disagreed.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointErrc code, std::string path, const std::string& what,
                  std::uint64_t expected = 0, std::uint64_t got = 0);

  CheckpointErrc code() const { return code_; }
  const std::string& path() const { return path_; }
  std::uint64_t expected() const { return expected_; }
  std::uint64_t got() const { return got_; }

 private:
  CheckpointErrc code_;
  std::string path_;
  std::uint64_t expected_;
  std::uint64_t got_;
};

// ---- shard payloads ------------------------------------------------------

// Replicated training state, written once per snapshot by rank 0.
struct CoreShard {
  std::uint64_t fingerprint = 0;
  std::uint64_t iteration = 0;   // iterations completed when snapshotted
  std::uint64_t world = 0;
  std::uint64_t mem_copies = 0;  // k
  std::vector<float> weights;    // flat, Module::flat_values order
};

// One memory copy's full state, written by that group's host rank after
// a daemon round barrier (so it is the post-round-T state exactly).
struct MemShard {
  std::uint64_t fingerprint = 0;
  std::uint64_t iteration = 0;
  std::uint64_t copy = 0;  // memory-parallel index in [0, k)
  std::uint64_t nodes = 0;
  std::uint64_t mem_dim = 0;
  std::uint64_t mail_dim = 0;
  std::vector<float> mem, mem_ts, mail, mail_ts;  // node order
  std::vector<std::uint8_t> flags;                // has_mail per node
};

// Per-rank private state: each rank snapshots its own Adam moments.
// `has_slice` marks a rank caught mid version-chain:
// it had read memory for a super-batch and not yet finished training
// all j versions, so the read slice must survive the restart.
struct RankShard {
  std::uint64_t fingerprint = 0;
  std::uint64_t iteration = 0;
  std::uint64_t rank = 0;
  double loss_sum = 0.0;
  std::uint64_t loss_count = 0;
  std::uint64_t events = 0;       // raw events processed so far
  std::uint64_t adam_steps = 0;   // Adam t_
  std::vector<float> adam_m, adam_v;
  bool has_slice = false;
  std::uint64_t slice_nodes = 0, slice_mem_dim = 0, slice_mail_dim = 0;
  std::vector<float> slice_mem, slice_mem_ts, slice_mail, slice_mail_ts;
  std::vector<std::uint8_t> slice_flags;
};

// The commit marker. Written last; its presence IS the snapshot.
struct CommitShard {
  std::uint64_t fingerprint = 0;
  std::uint64_t iteration = 0;
  std::uint64_t world = 0;
  std::uint64_t mem_copies = 0;
};

// ---- shard I/O -----------------------------------------------------------

// `<dir>/ckpt_<iteration>` — the stem every shard path derives from.
std::string snapshot_stem(const std::string& dir, std::uint64_t iteration);

void write_core_shard(const std::string& stem, const CoreShard& s);
void write_mem_shard(const std::string& stem, const MemShard& s);
void write_rank_shard(const std::string& stem, const RankShard& s);
void write_commit_shard(const std::string& stem, const CommitShard& s);

CoreShard read_core_shard(const std::string& stem);
MemShard read_mem_shard(const std::string& stem, std::uint64_t copy);
RankShard read_rank_shard(const std::string& stem, std::uint64_t rank);
CommitShard read_commit_shard(const std::string& stem);

// Captures one memory copy's full contents (node order) into a shard /
// applies a shard back onto a live state (full-row restore, flags
// included). apply throws kShapeMismatch when the shard's geometry
// disagrees with the state — before touching any row.
MemShard make_mem_shard(const MemoryState& state, std::uint64_t fingerprint,
                        std::uint64_t iteration, std::uint64_t copy);
void apply_mem_shard(const MemShard& s, MemoryState& state);

// ---- snapshot discovery / retention --------------------------------------

struct SnapshotRef {
  std::string stem;
  std::uint64_t iteration = 0;
};

// Full validation of one committed snapshot: commit marker, core shard,
// every mem shard, every rank shard — fingerprint, iteration, and
// geometry all consistent. False (never throws) on any defect.
bool validate_snapshot(const std::string& stem, std::uint64_t fingerprint,
                       std::uint64_t world, std::uint64_t mem_copies);

// Every committed snapshot in `dir` (commit markers present), newest
// first. Presence of the marker is all this checks — callers that need
// more (the trainers' full validate_snapshot, the serving tier's
// core+mem-only check) validate per stem and fall back down the list.
std::vector<SnapshotRef> list_snapshots(const std::string& dir);

// Newest fully-valid snapshot in `dir`, scanning commit markers in
// descending iteration order — a torn/corrupt newest set falls back to
// the previous one. nullopt when nothing valid exists (fresh start).
std::optional<SnapshotRef> find_latest_snapshot(const std::string& dir,
                                                std::uint64_t fingerprint,
                                                std::uint64_t world,
                                                std::uint64_t mem_copies);

// Keep the newest `keep` committed snapshots, delete the rest —
// commit marker FIRST, so an interrupted sweep leaves an uncommitted
// (invisible) shard pile, never a commit pointing at missing shards.
// Also sweeps stale `*.tmp` orphans. Best-effort: I/O errors ignored.
void retain_snapshots(const std::string& dir, std::size_t keep);

// FNV-1a-64 over every config field that shapes the training
// trajectory (model dims, i/j/k, batch/optimizer/seed/split knobs, graph
// size). Deliberately EXCLUDES fabric kind and tuning-only knobs: a
// snapshot from the thread fabric resumes on the proc fabric and
// vice versa — the fabrics are bit-identical, so the trajectory is too.
std::uint64_t config_fingerprint(const TrainingConfig& cfg,
                                 std::size_t num_nodes,
                                 std::size_t num_events);

// ---- deployable weights+memory checkpoints (single file) -----------------

// Writes the flat weight buffer and the given memory states. For a
// flat-frozen module, pass Module::flat_values() — a pure span handoff.
void save_checkpoint(const std::string& path, std::span<const float> weights,
                     const std::vector<const MemoryState*>& states);

// Writes weights (flattened from `params`) and the given memory states.
// Flat-frozen parameter sets are saved without the intermediate copy.
void save_checkpoint(const std::string& path,
                     const std::vector<nn::Parameter*>& params,
                     const std::vector<const MemoryState*>& states);

// Restores straight into the flat weight buffer (Module::flat_values())
// and pre-constructed states. Sizes must match the checkpoint exactly
// (throws CheckpointError kShapeMismatch with expected/got otherwise;
// corruption surfaces as kTruncated / kBadChecksum / kBadMagic).
void load_checkpoint(const std::string& path, std::span<float> weights,
                     std::vector<MemoryState*>& states);

// Restores into pre-constructed params/states. Shapes must match the
// checkpoint exactly (throws CheckpointError otherwise).
void load_checkpoint(const std::string& path,
                     std::vector<nn::Parameter*>& params,
                     std::vector<MemoryState*>& states);

// True when `params` already form one contiguous flat buffer (the
// Module::freeze_flat_storage layout), i.e. flatten/unflatten would be
// identity copies.
bool params_are_flat(const std::vector<nn::Parameter*>& params);

}  // namespace disttgl
