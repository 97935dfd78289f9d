#include "net/message.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace rem::net {
namespace {

std::uint32_t fnv1a32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_message(const BackhaulMessage& m) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameSize);
  put_u16(out, kFrameMagic);
  out.push_back(kFrameVersion);
  out.push_back(static_cast<std::uint8_t>(m.type));
  put_u64(out, m.seq);
  put_u32(out, static_cast<std::uint32_t>(m.src_cell));
  put_u32(out, static_cast<std::uint32_t>(m.dst_cell));
  put_u32(out, static_cast<std::uint32_t>(m.target_cell));
  put_u32(out, static_cast<std::uint32_t>(m.ue));
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(m.payload));
  std::memcpy(&bits, &m.payload, sizeof(bits));
  put_u64(out, bits);
  std::memcpy(&bits, &m.load, sizeof(bits));
  put_u64(out, bits);
  put_u32(out, fnv1a32(out.data(), out.size()));
  return out;
}

BackhaulMessage decode_message(const std::uint8_t* data, std::size_t len) {
  const auto fail = [](const std::string& why) {
    throw std::runtime_error("backhaul frame: " + why);
  };
  if (len != kFrameSize)
    fail("bad length " + std::to_string(len) + " (frame is " +
         std::to_string(kFrameSize) + " bytes)");
  const std::uint16_t magic = get_u16(data);
  if (magic != kFrameMagic) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "bad magic 0x%04x", magic);
    fail(buf);
  }
  if (data[2] != kFrameVersion)
    fail("unsupported version " + std::to_string(data[2]) + " (expected " +
         std::to_string(kFrameVersion) + ")");
  const std::uint32_t want = fnv1a32(data, kFrameSize - 4);
  const std::uint32_t got = get_u32(data + kFrameSize - 4);
  if (want != got) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "checksum mismatch (got 0x%08x, want 0x%08x)",
                  got, want);
    fail(buf);
  }
  const std::uint8_t raw_type = data[3];
  if (raw_type < 1 || raw_type > kNumMsgTypes)
    fail("unknown message type " + std::to_string(raw_type));
  BackhaulMessage m;
  m.type = static_cast<MsgType>(raw_type);
  m.seq = get_u64(data + 4);
  m.src_cell = static_cast<std::int32_t>(get_u32(data + 12));
  m.dst_cell = static_cast<std::int32_t>(get_u32(data + 16));
  m.target_cell = static_cast<std::int32_t>(get_u32(data + 20));
  m.ue = static_cast<std::int32_t>(get_u32(data + 24));
  const auto check_cell = [&](std::int32_t v, const char* name) {
    if (v < -1)
      fail(std::string("invalid ") + name + " " + std::to_string(v) +
           " (must be >= -1)");
  };
  check_cell(m.src_cell, "src_cell");
  check_cell(m.dst_cell, "dst_cell");
  check_cell(m.target_cell, "target_cell");
  if (m.ue < 0)
    fail("invalid ue " + std::to_string(m.ue) + " (must be >= 0)");
  std::uint64_t bits = get_u64(data + 28);
  std::memcpy(&m.payload, &bits, sizeof(m.payload));
  bits = get_u64(data + 36);
  std::memcpy(&m.load, &bits, sizeof(m.load));
  if (m.load > 1.0)
    fail("invalid load advertisement " + std::to_string(m.load) +
         " (must be <= 1; negative means none)");
  return m;
}

}  // namespace rem::net
