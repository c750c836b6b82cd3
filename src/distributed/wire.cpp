#include "distributed/wire.hpp"

#include <cstring>

namespace disttgl::dist {
namespace {

void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint32_t{p[1]} << 8));
}

std::uint32_t load_u32(const std::uint8_t* p) {
  return p[0] | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

}  // namespace

std::uint32_t wire_checksum(std::span<const std::uint8_t> payload) {
  std::uint32_t h = 0x811c9dc5u;  // FNV-1a offset basis
  for (std::uint8_t b : payload) {
    h ^= b;
    h *= 0x01000193u;  // FNV prime
  }
  return h;
}

void encode_frame(MsgType type, std::span<const std::uint8_t> payload,
                  std::vector<std::uint8_t>& out) {
  if (payload.size() > kWireMaxPayload)
    throw_fabric(FabricErrc::kOversize,
                 "encode_frame: payload " + std::to_string(payload.size()) +
                     " exceeds max " + std::to_string(kWireMaxPayload));
  out.reserve(out.size() + kWireHeaderBytes + payload.size());
  append_u32(out, kWireMagic);
  append_u16(out, kWireVersion);
  append_u16(out, static_cast<std::uint16_t>(type));
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  append_u32(out, wire_checksum(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  if (poisoned_) return;  // keep draining input; poll() rethrows
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void FrameReader::compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a
  // long-lived connection doesn't grow without bound while staying
  // amortized O(1) per byte.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

bool FrameReader::poll(Frame& out) {
  if (poisoned_) throw *poisoned_;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kWireHeaderBytes) return false;
  const std::uint8_t* h = buffer_.data() + consumed_;

  // Validate the header *before* trusting the length field. A bad magic
  // or version means the stream is garbage from here on — poison, don't
  // resynchronize (resync heuristics are how parsers get confused into
  // accepting attacker-framed data).
  const std::uint32_t magic = load_u32(h);
  if (magic != kWireMagic) {
    poisoned_.emplace(FabricErrc::kBadMagic,
                      "frame magic 0x" + std::to_string(magic));
    throw *poisoned_;
  }
  const std::uint16_t version = load_u16(h + 4);
  if (version != kWireVersion) {
    poisoned_.emplace(FabricErrc::kBadVersion,
                      "frame version " + std::to_string(version));
    throw *poisoned_;
  }
  const std::uint32_t len = load_u32(h + 8);
  if (len > kWireMaxPayload) {
    poisoned_.emplace(FabricErrc::kOversize,
                      "declared payload " + std::to_string(len));
    throw *poisoned_;
  }
  if (avail < kWireHeaderBytes + len) return false;  // wait for more bytes

  const std::uint8_t* payload = h + kWireHeaderBytes;
  const std::uint32_t declared_sum = load_u32(h + 12);
  const std::uint32_t actual_sum = wire_checksum({payload, len});
  if (declared_sum != actual_sum) {
    poisoned_.emplace(FabricErrc::kBadChecksum,
                      "checksum mismatch: declared 0x" +
                          std::to_string(declared_sum) + " actual 0x" +
                          std::to_string(actual_sum));
    throw *poisoned_;
  }

  out.type = static_cast<MsgType>(load_u16(h + 6));
  out.payload.assign(payload, payload + len);
  consumed_ += kWireHeaderBytes + len;
  compact();
  return true;
}

// ---- WireWriter ----------------------------------------------------------

void WireWriter::put_u32(std::uint32_t v) { append_u32(data_, v); }

void WireWriter::put_u64(std::uint64_t v) {
  append_u32(data_, static_cast<std::uint32_t>(v));
  append_u32(data_, static_cast<std::uint32_t>(v >> 32));
}

void WireWriter::put_f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void WireWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  put_u64(bytes.size());
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

void WireWriter::put_string(const std::string& s) {
  put_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void WireWriter::put_f32s(std::span<const float> v) {
  put_u64(v.size());
  const auto* raw = reinterpret_cast<const std::uint8_t*>(v.data());
  data_.insert(data_.end(), raw, raw + v.size() * sizeof(float));
}

void WireWriter::put_u32s(std::span<const std::uint32_t> v) {
  put_u64(v.size());
  const auto* raw = reinterpret_cast<const std::uint8_t*>(v.data());
  data_.insert(data_.end(), raw, raw + v.size() * sizeof(std::uint32_t));
}

// ---- WireCursor ----------------------------------------------------------

void WireCursor::need(std::size_t n) const {
  if (data_.size() - pos_ < n)
    throw_fabric(FabricErrc::kTruncated,
                 "payload field needs " + std::to_string(n) + " bytes, " +
                     std::to_string(data_.size() - pos_) + " remain");
}

std::uint32_t WireCursor::get_u32() {
  need(4);
  const std::uint32_t v = load_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t WireCursor::get_u64() {
  const std::uint64_t lo = get_u32();
  const std::uint64_t hi = get_u32();
  return lo | (hi << 32);
}

double WireCursor::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<std::uint8_t> WireCursor::get_bytes() {
  const std::uint64_t n = get_u64();
  need(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string WireCursor::get_string() {
  const std::uint64_t n = get_u64();
  need(n);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

std::vector<float> WireCursor::get_f32s() {
  const std::uint64_t count = get_u64();
  // Guard count*4 overflow before the bounds check.
  if (count > data_.size()) throw_fabric(FabricErrc::kTruncated, "f32 count");
  need(count * sizeof(float));
  std::vector<float> out(count);
  // An empty vector's data() may be null, which memcpy must never get.
  if (count > 0)
    std::memcpy(out.data(), data_.data() + pos_, count * sizeof(float));
  pos_ += count * sizeof(float);
  return out;
}

void WireCursor::get_f32s_into(std::vector<float>& out) {
  const std::uint64_t count = get_u64();
  if (count > data_.size()) throw_fabric(FabricErrc::kTruncated, "f32 count");
  need(count * sizeof(float));
  out.resize(count);
  if (count > 0)
    std::memcpy(out.data(), data_.data() + pos_, count * sizeof(float));
  pos_ += count * sizeof(float);
}

void WireCursor::get_u32s_into(std::vector<std::uint32_t>& out) {
  const std::uint64_t count = get_u64();
  if (count > data_.size()) throw_fabric(FabricErrc::kTruncated, "u32 count");
  need(count * sizeof(std::uint32_t));
  out.resize(count);
  if (count > 0)
    std::memcpy(out.data(), data_.data() + pos_,
                count * sizeof(std::uint32_t));
  pos_ += count * sizeof(std::uint32_t);
}

}  // namespace disttgl::dist
