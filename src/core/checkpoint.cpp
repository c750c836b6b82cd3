#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "distributed/wire.hpp"

namespace disttgl {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x4c475444;  // "DTGL"
constexpr std::uint32_t kVersion = 2;

// Container kinds. kModel is the deployable weights+memory checkpoint;
// the rest are recovery-snapshot shards.
enum ShardKind : std::uint32_t {
  kModel = 1,
  kCore = 2,
  kMem = 3,
  kRank = 4,
  kCommit = 5,
};

void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t get_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

// magic + version + kind + payload_len + checksum.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 4;

[[noreturn]] void throw_io(const std::string& path, const char* op) {
  std::ostringstream msg;
  msg << op << " failed for checkpoint file " << path << ": "
      << std::strerror(errno);
  throw CheckpointError(CheckpointErrc::kIoError, path, msg.str());
}

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::string& path) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io(path, "write");
    }
    off += static_cast<std::size_t>(n);
  }
}

// Whole-file atomic write: header+payload → `<path>.tmp`, fsync, rename
// over the final name, fsync the directory. Readers either see the old
// file or the complete new one, never a torn mix.
void atomic_write(const std::string& path, std::uint32_t kind,
                  std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> buf;
  buf.reserve(kHeaderBytes + payload.size());
  put_le32(buf, kMagic);
  put_le32(buf, kVersion);
  put_le32(buf, kind);
  put_le64(buf, payload.size());
  put_le32(buf, dist::wire_checksum(payload));
  buf.insert(buf.end(), payload.begin(), payload.end());

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io(tmp, "open");
  write_all(fd, buf.data(), buf.size(), tmp);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_io(tmp, "fsync");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) throw_io(path, "rename");

  // Persist the rename itself: fsync the containing directory.
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best-effort: some filesystems reject dir fsync
    ::close(dfd);
  }
}

// Reads + verifies a container, returning the checksummed payload.
std::vector<std::uint8_t> read_container(const std::string& path,
                                         std::uint32_t want_kind) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT)
      throw CheckpointError(CheckpointErrc::kMissingFile, path,
                            "checkpoint file missing: " + path);
    throw_io(path, "open");
  }
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_io(path, "read");
    }
    if (n == 0) break;
    buf.insert(buf.end(), chunk, chunk + n);
  }
  ::close(fd);

  if (buf.size() < kHeaderBytes) {
    std::ostringstream msg;
    msg << "checkpoint file truncated before the header: " << path << " ("
        << buf.size() << " of " << kHeaderBytes << " header bytes)";
    throw CheckpointError(CheckpointErrc::kTruncated, path, msg.str(),
                          kHeaderBytes, buf.size());
  }
  const std::uint32_t magic = get_le32(buf.data());
  if (magic != kMagic)
    throw CheckpointError(CheckpointErrc::kBadMagic, path,
                          "not a DistTGL checkpoint: " + path, kMagic, magic);
  const std::uint32_t version = get_le32(buf.data() + 4);
  if (version != kVersion) {
    std::ostringstream msg;
    msg << "unsupported checkpoint version " << version << " (want "
        << kVersion << "): " << path;
    throw CheckpointError(CheckpointErrc::kBadVersion, path, msg.str(),
                          kVersion, version);
  }
  const std::uint32_t kind = get_le32(buf.data() + 8);
  if (kind != want_kind) {
    std::ostringstream msg;
    msg << "checkpoint shard kind " << kind << " where kind " << want_kind
        << " was expected: " << path;
    throw CheckpointError(CheckpointErrc::kBadKind, path, msg.str(), want_kind,
                          kind);
  }
  const std::uint64_t payload_len = get_le64(buf.data() + 12);
  if (buf.size() - kHeaderBytes != payload_len) {
    std::ostringstream msg;
    msg << "checkpoint payload truncated: " << path << " declares "
        << payload_len << " payload bytes, file holds "
        << (buf.size() - kHeaderBytes);
    throw CheckpointError(CheckpointErrc::kTruncated, path, msg.str(),
                          kHeaderBytes + payload_len, buf.size());
  }
  const std::uint32_t want_sum = get_le32(buf.data() + 20);
  std::vector<std::uint8_t> payload(buf.begin() + kHeaderBytes, buf.end());
  const std::uint32_t got_sum = dist::wire_checksum(payload);
  if (got_sum != want_sum) {
    std::ostringstream msg;
    msg << "checkpoint checksum mismatch: " << path << " (stored " << std::hex
        << want_sum << ", computed " << got_sum << ")";
    throw CheckpointError(CheckpointErrc::kBadChecksum, path, msg.str(),
                          want_sum, got_sum);
  }
  return payload;
}

// WireCursor overruns are FabricError kTruncated; at the checkpoint
// layer a payload that parses short is the same defect class as a short
// file, so rethrow in-type.
template <typename Fn>
auto parse_payload(const std::string& path, Fn&& fn) {
  try {
    return fn();
  } catch (const dist::FabricError& e) {
    throw CheckpointError(CheckpointErrc::kTruncated, path,
                          std::string("checkpoint payload underruns its "
                                      "declared fields: ") +
                              path + " (" + e.what() + ")");
  }
}

void expect_drained(dist::WireCursor& cur, const std::string& path) {
  if (cur.remaining() != 0) {
    std::ostringstream msg;
    msg << "checkpoint payload has " << cur.remaining()
        << " trailing bytes past the last field: " << path;
    throw CheckpointError(CheckpointErrc::kTruncated, path, msg.str(), 0,
                          cur.remaining());
  }
}

void check_size(const std::string& path, const char* field,
                std::uint64_t want, std::uint64_t got) {
  if (want == got) return;
  std::ostringstream msg;
  msg << "checkpoint " << field << " mismatch: " << path << " holds " << got
      << ", the live target needs " << want;
  throw CheckpointError(CheckpointErrc::kShapeMismatch, path, msg.str(), want,
                        got);
}

std::span<const float> matrix_span(const Matrix& m) {
  return {m.data(), m.size()};
}

// Serializes one MemoryState's full contents in node order.
void put_state(dist::WireWriter& w, const MemoryState& s) {
  w.put_u64(s.num_nodes());
  w.put_u64(s.mem_dim());
  w.put_u64(s.mail_dim());
  std::vector<NodeId> all(s.num_nodes());
  for (NodeId v = 0; v < s.num_nodes(); ++v) all[v] = v;
  MemorySlice slice;
  s.read_into(all, slice);
  w.put_f32s(matrix_span(slice.mem));
  w.put_f32s(slice.mem_ts);
  w.put_f32s(matrix_span(slice.mail));
  w.put_f32s(slice.mail_ts);
  w.put_bytes(slice.has_mail);
}

void check_state_shapes(const MemoryState& s, std::uint64_t nodes,
                        std::uint64_t mem_dim, std::uint64_t mail_dim,
                        std::size_t mem_n, std::size_t mem_ts_n,
                        std::size_t mail_n, std::size_t mail_ts_n,
                        std::size_t flags_n, const std::string& path) {
  check_size(path, "memory node count", s.num_nodes(), nodes);
  check_size(path, "memory dim", s.mem_dim(), mem_dim);
  check_size(path, "mail dim", s.mail_dim(), mail_dim);
  check_size(path, "memory row payload", nodes * mem_dim, mem_n);
  check_size(path, "memory timestamp payload", nodes, mem_ts_n);
  check_size(path, "mail row payload", nodes * mail_dim, mail_n);
  check_size(path, "mail timestamp payload", nodes, mail_ts_n);
  check_size(path, "mail flag payload", nodes, flags_n);
}

// Full-row restore, flags included — restore() is the one writer that
// can clear a has_mail flag, so the loaded state reproduces the saved
// one exactly. Shapes must have been checked already.
void apply_state(MemoryState& s, std::uint64_t nodes, std::uint64_t mem_dim,
                 std::uint64_t mail_dim, const std::vector<float>& mem,
                 const std::vector<float>& mem_ts,
                 const std::vector<float>& mail,
                 const std::vector<float>& mail_ts,
                 const std::vector<std::uint8_t>& flags) {
  std::vector<NodeId> all(nodes);
  for (NodeId v = 0; v < nodes; ++v) all[v] = v;
  Matrix mem_m(nodes, mem_dim), mail_m(nodes, mail_dim);
  std::copy(mem.begin(), mem.end(), mem_m.data());
  std::copy(mail.begin(), mail.end(), mail_m.data());
  s.reset();
  s.restore(all, mem_m, mem_ts, mail_m, mail_ts, flags);
}

std::string shard_path(const std::string& stem, const char* ext) {
  return stem + ext;
}

std::string mem_path(const std::string& stem, std::uint64_t copy) {
  return stem + ".mem" + std::to_string(copy);
}

std::string rank_path(const std::string& stem, std::uint64_t rank) {
  return stem + ".rank" + std::to_string(rank);
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Parses `ckpt_<digits>.commit`; nullopt for anything else.
std::optional<std::uint64_t> commit_iteration(const std::string& name) {
  constexpr std::string_view prefix = "ckpt_";
  constexpr std::string_view suffix = ".commit";
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return std::nullopt;
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::uint64_t iter = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    iter = iter * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return iter;
}

// Committed snapshot iterations in `dir`, newest first.
std::vector<std::uint64_t> committed_iterations(const std::string& dir) {
  std::vector<std::uint64_t> iters;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (const auto iter = commit_iteration(entry.path().filename().string()))
      iters.push_back(*iter);
  }
  std::sort(iters.rbegin(), iters.rend());
  return iters;
}

}  // namespace

const char* checkpoint_errc_name(CheckpointErrc code) {
  switch (code) {
    case CheckpointErrc::kIoError:
      return "io_error";
    case CheckpointErrc::kBadMagic:
      return "bad_magic";
    case CheckpointErrc::kBadVersion:
      return "bad_version";
    case CheckpointErrc::kBadKind:
      return "bad_kind";
    case CheckpointErrc::kTruncated:
      return "truncated";
    case CheckpointErrc::kBadChecksum:
      return "bad_checksum";
    case CheckpointErrc::kShapeMismatch:
      return "shape_mismatch";
    case CheckpointErrc::kFingerprintMismatch:
      return "fingerprint_mismatch";
    case CheckpointErrc::kMissingFile:
      return "missing_file";
  }
  return "unknown";
}

CheckpointError::CheckpointError(CheckpointErrc code, std::string path,
                                 const std::string& what,
                                 std::uint64_t expected, std::uint64_t got)
    : std::runtime_error("[checkpoint:" +
                         std::string(checkpoint_errc_name(code)) + "] " + what),
      code_(code),
      path_(std::move(path)),
      expected_(expected),
      got_(got) {}

// ---- shard I/O -----------------------------------------------------------

std::string snapshot_stem(const std::string& dir, std::uint64_t iteration) {
  return (fs::path(dir) / ("ckpt_" + std::to_string(iteration))).string();
}

void write_core_shard(const std::string& stem, const CoreShard& s) {
  dist::WireWriter w;
  w.put_u64(s.fingerprint);
  w.put_u64(s.iteration);
  w.put_u64(s.world);
  w.put_u64(s.mem_copies);
  w.put_f32s(s.weights);
  atomic_write(shard_path(stem, ".core"), kCore, w.bytes());
}

void write_mem_shard(const std::string& stem, const MemShard& s) {
  dist::WireWriter w;
  w.put_u64(s.fingerprint);
  w.put_u64(s.iteration);
  w.put_u64(s.copy);
  w.put_u64(s.nodes);
  w.put_u64(s.mem_dim);
  w.put_u64(s.mail_dim);
  w.put_f32s(s.mem);
  w.put_f32s(s.mem_ts);
  w.put_f32s(s.mail);
  w.put_f32s(s.mail_ts);
  w.put_bytes(s.flags);
  atomic_write(mem_path(stem, s.copy), kMem, w.bytes());
}

void write_rank_shard(const std::string& stem, const RankShard& s) {
  dist::WireWriter w;
  w.put_u64(s.fingerprint);
  w.put_u64(s.iteration);
  w.put_u64(s.rank);
  w.put_f64(s.loss_sum);
  w.put_u64(s.loss_count);
  w.put_u64(s.events);
  w.put_u64(s.adam_steps);
  w.put_f32s(s.adam_m);
  w.put_f32s(s.adam_v);
  w.put_u32(s.has_slice ? 1 : 0);
  if (s.has_slice) {
    w.put_u64(s.slice_nodes);
    w.put_u64(s.slice_mem_dim);
    w.put_u64(s.slice_mail_dim);
    w.put_f32s(s.slice_mem);
    w.put_f32s(s.slice_mem_ts);
    w.put_f32s(s.slice_mail);
    w.put_f32s(s.slice_mail_ts);
    w.put_bytes(s.slice_flags);
  }
  atomic_write(rank_path(stem, s.rank), kRank, w.bytes());
}

void write_commit_shard(const std::string& stem, const CommitShard& s) {
  dist::WireWriter w;
  w.put_u64(s.fingerprint);
  w.put_u64(s.iteration);
  w.put_u64(s.world);
  w.put_u64(s.mem_copies);
  atomic_write(shard_path(stem, ".commit"), kCommit, w.bytes());
}

CoreShard read_core_shard(const std::string& stem) {
  const std::string path = shard_path(stem, ".core");
  const auto payload = read_container(path, kCore);
  return parse_payload(path, [&] {
    dist::WireCursor c(payload);
    CoreShard s;
    s.fingerprint = c.get_u64();
    s.iteration = c.get_u64();
    s.world = c.get_u64();
    s.mem_copies = c.get_u64();
    s.weights = c.get_f32s();
    expect_drained(c, path);
    return s;
  });
}

MemShard read_mem_shard(const std::string& stem, std::uint64_t copy) {
  const std::string path = mem_path(stem, copy);
  const auto payload = read_container(path, kMem);
  return parse_payload(path, [&] {
    dist::WireCursor c(payload);
    MemShard s;
    s.fingerprint = c.get_u64();
    s.iteration = c.get_u64();
    s.copy = c.get_u64();
    s.nodes = c.get_u64();
    s.mem_dim = c.get_u64();
    s.mail_dim = c.get_u64();
    s.mem = c.get_f32s();
    s.mem_ts = c.get_f32s();
    s.mail = c.get_f32s();
    s.mail_ts = c.get_f32s();
    s.flags = c.get_bytes();
    expect_drained(c, path);
    check_size(path, "memory-copy index", copy, s.copy);
    return s;
  });
}

RankShard read_rank_shard(const std::string& stem, std::uint64_t rank) {
  const std::string path = rank_path(stem, rank);
  const auto payload = read_container(path, kRank);
  return parse_payload(path, [&] {
    dist::WireCursor c(payload);
    RankShard s;
    s.fingerprint = c.get_u64();
    s.iteration = c.get_u64();
    s.rank = c.get_u64();
    s.loss_sum = c.get_f64();
    s.loss_count = c.get_u64();
    s.events = c.get_u64();
    s.adam_steps = c.get_u64();
    s.adam_m = c.get_f32s();
    s.adam_v = c.get_f32s();
    s.has_slice = c.get_u32() != 0;
    if (s.has_slice) {
      s.slice_nodes = c.get_u64();
      s.slice_mem_dim = c.get_u64();
      s.slice_mail_dim = c.get_u64();
      s.slice_mem = c.get_f32s();
      s.slice_mem_ts = c.get_f32s();
      s.slice_mail = c.get_f32s();
      s.slice_mail_ts = c.get_f32s();
      s.slice_flags = c.get_bytes();
    }
    expect_drained(c, path);
    check_size(path, "rank index", rank, s.rank);
    return s;
  });
}

CommitShard read_commit_shard(const std::string& stem) {
  const std::string path = shard_path(stem, ".commit");
  const auto payload = read_container(path, kCommit);
  return parse_payload(path, [&] {
    dist::WireCursor c(payload);
    CommitShard s;
    s.fingerprint = c.get_u64();
    s.iteration = c.get_u64();
    s.world = c.get_u64();
    s.mem_copies = c.get_u64();
    expect_drained(c, path);
    return s;
  });
}

MemShard make_mem_shard(const MemoryState& state, std::uint64_t fingerprint,
                        std::uint64_t iteration, std::uint64_t copy) {
  MemShard s;
  s.fingerprint = fingerprint;
  s.iteration = iteration;
  s.copy = copy;
  s.nodes = state.num_nodes();
  s.mem_dim = state.mem_dim();
  s.mail_dim = state.mail_dim();
  std::vector<NodeId> all(state.num_nodes());
  for (NodeId v = 0; v < state.num_nodes(); ++v) all[v] = v;
  MemorySlice slice;
  state.read_into(all, slice);
  s.mem.assign(slice.mem.data(), slice.mem.data() + slice.mem.size());
  s.mem_ts = std::move(slice.mem_ts);
  s.mail.assign(slice.mail.data(), slice.mail.data() + slice.mail.size());
  s.mail_ts = std::move(slice.mail_ts);
  s.flags = std::move(slice.has_mail);
  return s;
}

void apply_mem_shard(const MemShard& s, MemoryState& state) {
  const std::string label = "<mem shard " + std::to_string(s.copy) + ">";
  check_state_shapes(state, s.nodes, s.mem_dim, s.mail_dim, s.mem.size(),
                     s.mem_ts.size(), s.mail.size(), s.mail_ts.size(),
                     s.flags.size(), label);
  apply_state(state, s.nodes, s.mem_dim, s.mail_dim, s.mem, s.mem_ts, s.mail,
              s.mail_ts, s.flags);
}

// ---- snapshot discovery / retention --------------------------------------

bool validate_snapshot(const std::string& stem, std::uint64_t fingerprint,
                       std::uint64_t world, std::uint64_t mem_copies) {
  try {
    const CommitShard commit = read_commit_shard(stem);
    if (commit.fingerprint != fingerprint || commit.world != world ||
        commit.mem_copies != mem_copies)
      return false;
    const CoreShard core = read_core_shard(stem);
    if (core.fingerprint != fingerprint || core.iteration != commit.iteration ||
        core.world != world || core.mem_copies != mem_copies)
      return false;
    for (std::uint64_t m = 0; m < mem_copies; ++m) {
      const MemShard shard = read_mem_shard(stem, m);
      if (shard.fingerprint != fingerprint ||
          shard.iteration != commit.iteration)
        return false;
    }
    for (std::uint64_t r = 0; r < world; ++r) {
      const RankShard shard = read_rank_shard(stem, r);
      if (shard.fingerprint != fingerprint ||
          shard.iteration != commit.iteration)
        return false;
    }
    return true;
  } catch (const CheckpointError&) {
    return false;
  }
}

std::vector<SnapshotRef> list_snapshots(const std::string& dir) {
  std::vector<SnapshotRef> out;
  for (const std::uint64_t iter : committed_iterations(dir))
    out.push_back(SnapshotRef{snapshot_stem(dir, iter), iter});
  return out;
}

std::optional<SnapshotRef> find_latest_snapshot(const std::string& dir,
                                                std::uint64_t fingerprint,
                                                std::uint64_t world,
                                                std::uint64_t mem_copies) {
  for (const std::uint64_t iter : committed_iterations(dir)) {
    const std::string stem = snapshot_stem(dir, iter);
    if (validate_snapshot(stem, fingerprint, world, mem_copies))
      return SnapshotRef{stem, iter};
  }
  return std::nullopt;
}

void retain_snapshots(const std::string& dir, std::size_t keep) {
  const std::vector<std::uint64_t> iters = committed_iterations(dir);
  std::error_code ec;
  for (std::size_t n = keep; n < iters.size(); ++n) {
    const std::string stem = snapshot_stem(dir, iters[n]);
    // Marker first: once it is gone the set is uncommitted, and a sweep
    // interrupted mid-shard-delete leaves garbage, not a torn snapshot.
    fs::remove(shard_path(stem, ".commit"), ec);
    const std::string prefix = "ckpt_" + std::to_string(iters[n]) + ".";
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0) fs::remove(entry.path(), ec);
    }
  }
  // Stale `*.tmp` orphans from a crash mid-atomic-write.
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0)
      fs::remove(entry.path(), ec);
  }
}

std::uint64_t config_fingerprint(const TrainingConfig& cfg,
                                 std::size_t num_nodes,
                                 std::size_t num_events) {
  dist::WireWriter w;
  const ModelConfig& m = cfg.model;
  w.put_u64(m.mem_dim);
  w.put_u64(m.time_dim);
  w.put_u64(m.attn_dim);
  w.put_u64(m.num_heads);
  w.put_u64(m.emb_dim);
  w.put_u64(m.num_neighbors);
  w.put_u64(m.static_dim);
  w.put_u64(m.head_hidden);
  w.put_u32(static_cast<std::uint32_t>(m.comb));
  w.put_u32(m.dynamic_memory ? 1 : 0);
  w.put_u64(cfg.parallel.i);
  w.put_u64(cfg.parallel.j);
  w.put_u64(cfg.parallel.k);
  w.put_u64(cfg.local_batch);
  w.put_u64(cfg.num_neg);
  w.put_u64(cfg.neg_groups);
  w.put_u64(cfg.epochs);
  w.put_u32(std::bit_cast<std::uint32_t>(cfg.base_lr));
  w.put_u32(cfg.scale_lr_with_world ? 1 : 0);
  w.put_u32(std::bit_cast<std::uint32_t>(cfg.grad_clip));
  w.put_u64(cfg.seed);
  w.put_u64(cfg.eval_negs);
  w.put_f64(cfg.train_frac);
  w.put_f64(cfg.val_frac);
  w.put_u64(cfg.comm_chunk_elems);
  w.put_u64(num_nodes);
  w.put_u64(num_events);
  return fnv1a64(w.bytes());
}

// ---- deployable weights+memory checkpoints -------------------------------

bool params_are_flat(const std::vector<nn::Parameter*>& params) {
  if (params.empty()) return false;
  const float* base = params[0]->value.data();
  std::size_t off = 0;
  for (const nn::Parameter* p : params) {
    if (p->value.data() != base + off) return false;
    off += p->size();
  }
  return true;
}

void save_checkpoint(const std::string& path, std::span<const float> weights,
                     const std::vector<const MemoryState*>& states) {
  dist::WireWriter w;
  w.put_f32s(weights);
  w.put_u64(states.size());
  for (const MemoryState* s : states) put_state(w, *s);
  atomic_write(path, kModel, w.bytes());
}

void save_checkpoint(const std::string& path,
                     const std::vector<nn::Parameter*>& params,
                     const std::vector<const MemoryState*>& states) {
  if (params_are_flat(params)) {
    // Flat storage: the concatenated-value buffer already exists.
    save_checkpoint(
        path, std::span<const float>(params[0]->value.data(),
                                     nn::flat_size(params)),
        states);
    return;
  }
  std::vector<float> weights;
  nn::flatten_values(params, weights);
  save_checkpoint(path, weights, states);
}

void load_checkpoint(const std::string& path, std::span<float> weights,
                     std::vector<MemoryState*>& states) {
  const auto payload = read_container(path, kModel);
  parse_payload(path, [&] {
    dist::WireCursor c(payload);
    const std::vector<float> file_weights = c.get_f32s();
    check_size(path, "weight count", weights.size(), file_weights.size());
    const std::uint64_t num_states = c.get_u64();
    check_size(path, "memory-state count", states.size(), num_states);

    // Parse + shape-check every state's payload before touching live
    // state: a checkpoint that fails mid-file leaves the target intact.
    struct Parsed {
      std::uint64_t nodes, mem_dim, mail_dim;
      std::vector<float> mem, mem_ts, mail, mail_ts;
      std::vector<std::uint8_t> flags;
    };
    std::vector<Parsed> parsed;
    parsed.reserve(states.size());
    for (std::size_t s = 0; s < states.size(); ++s) {
      Parsed p;
      p.nodes = c.get_u64();
      p.mem_dim = c.get_u64();
      p.mail_dim = c.get_u64();
      p.mem = c.get_f32s();
      p.mem_ts = c.get_f32s();
      p.mail = c.get_f32s();
      p.mail_ts = c.get_f32s();
      p.flags = c.get_bytes();
      check_state_shapes(*states[s], p.nodes, p.mem_dim, p.mail_dim,
                         p.mem.size(), p.mem_ts.size(), p.mail.size(),
                         p.mail_ts.size(), p.flags.size(), path);
      parsed.push_back(std::move(p));
    }
    expect_drained(c, path);
    for (std::size_t s = 0; s < states.size(); ++s) {
      const Parsed& p = parsed[s];
      apply_state(*states[s], p.nodes, p.mem_dim, p.mail_dim, p.mem, p.mem_ts,
                  p.mail, p.mail_ts, p.flags);
    }
    std::copy(file_weights.begin(), file_weights.end(), weights.begin());
    return 0;
  });
}

void load_checkpoint(const std::string& path,
                     std::vector<nn::Parameter*>& params,
                     std::vector<MemoryState*>& states) {
  if (params_are_flat(params)) {
    // Flat storage: read straight into the parameters' backing buffer.
    load_checkpoint(path,
                    std::span<float>(params[0]->value.data(),
                                     nn::flat_size(params)),
                    states);
    return;
  }
  std::vector<float> weights(nn::flat_size(params));
  load_checkpoint(path, std::span<float>(weights), states);
  nn::unflatten_values(weights, params);
}

}  // namespace disttgl
