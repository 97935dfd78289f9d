#include "phy/qam.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace rem::phy {
namespace {

// Gray-coded PAM levels for one axis carrying `bits` bits, unnormalized
// (..., -3, -1, 1, 3, ...) indexed by the Gray-decoded bit group.
double pam_level(std::uint32_t gray_bits, std::size_t bits) {
  // Convert Gray code to binary index.
  std::uint32_t bin = gray_bits;
  for (std::uint32_t shift = 1; shift < bits; shift <<= 1)
    bin ^= bin >> shift;
  const double levels = static_cast<double>(1u << bits);
  return 2.0 * static_cast<double>(bin) - (levels - 1.0);
}

std::uint32_t pam_bits_from_level(double x, std::size_t bits) {
  const std::int32_t levels = 1 << bits;
  // Nearest level index.
  std::int32_t idx = static_cast<std::int32_t>(
      std::lround((x + (levels - 1)) / 2.0));
  idx = std::max(0, std::min(levels - 1, idx));
  // Binary to Gray.
  const auto u = static_cast<std::uint32_t>(idx);
  return u ^ (u >> 1);
}

struct AxisSpec {
  std::size_t bits_per_axis;
  double scale;  // normalization to unit average power
};

AxisSpec axis_spec(Modulation m) {
  switch (m) {
    case Modulation::kBPSK: return {1, 1.0};
    case Modulation::kQPSK: return {1, 1.0 / std::sqrt(2.0)};
    case Modulation::kQAM16: return {2, 1.0 / std::sqrt(10.0)};
    case Modulation::kQAM64: return {3, 1.0 / std::sqrt(42.0)};
  }
  throw std::invalid_argument("unknown modulation");
}

}  // namespace

std::size_t bits_per_symbol(Modulation m) {
  switch (m) {
    case Modulation::kBPSK: return 1;
    case Modulation::kQPSK: return 2;
    case Modulation::kQAM16: return 4;
    case Modulation::kQAM64: return 6;
  }
  return 0;
}

std::vector<cd> qam_modulate(const std::vector<std::uint8_t>& bits,
                             Modulation m) {
  const std::size_t bps = bits_per_symbol(m);
  if (bits.size() % bps != 0)
    throw std::invalid_argument("bit count not a multiple of bits/symbol");
  const auto spec = axis_spec(m);
  std::vector<cd> out;
  out.reserve(bits.size() / bps);
  for (std::size_t i = 0; i < bits.size(); i += bps) {
    if (m == Modulation::kBPSK) {
      out.emplace_back(bits[i] ? -1.0 : 1.0, 0.0);
      continue;
    }
    // First half of the bits on I, second half on Q.
    std::uint32_t gi = 0, gq = 0;
    for (std::size_t b = 0; b < spec.bits_per_axis; ++b)
      gi = (gi << 1) | bits[i + b];
    for (std::size_t b = 0; b < spec.bits_per_axis; ++b)
      gq = (gq << 1) | bits[i + spec.bits_per_axis + b];
    out.emplace_back(pam_level(gi, spec.bits_per_axis) * spec.scale,
                     pam_level(gq, spec.bits_per_axis) * spec.scale);
  }
  return out;
}

std::vector<std::uint8_t> qam_demodulate_hard(const std::vector<cd>& symbols,
                                              Modulation m) {
  const auto spec = axis_spec(m);
  const std::size_t bps = bits_per_symbol(m);
  std::vector<std::uint8_t> bits;
  bits.reserve(symbols.size() * bps);
  for (const auto& s : symbols) {
    if (m == Modulation::kBPSK) {
      bits.push_back(s.real() < 0 ? 1 : 0);
      continue;
    }
    const std::uint32_t gi =
        pam_bits_from_level(s.real() / spec.scale, spec.bits_per_axis);
    const std::uint32_t gq =
        pam_bits_from_level(s.imag() / spec.scale, spec.bits_per_axis);
    for (std::size_t b = 0; b < spec.bits_per_axis; ++b)
      bits.push_back((gi >> (spec.bits_per_axis - 1 - b)) & 1u);
    for (std::size_t b = 0; b < spec.bits_per_axis; ++b)
      bits.push_back((gq >> (spec.bits_per_axis - 1 - b)) & 1u);
  }
  return bits;
}

const std::vector<cd>& constellation(Modulation m) {
  static const auto make = [](Modulation mod) {
    const std::size_t bps = bits_per_symbol(mod);
    std::vector<cd> pts;
    const std::size_t count = 1u << bps;
    for (std::size_t v = 0; v < count; ++v) {
      std::vector<std::uint8_t> bits(bps);
      for (std::size_t b = 0; b < bps; ++b)
        bits[b] = (v >> (bps - 1 - b)) & 1u;
      pts.push_back(qam_modulate(bits, mod)[0]);
    }
    return pts;
  };
  static const std::vector<cd> bpsk = make(Modulation::kBPSK);
  static const std::vector<cd> qpsk = make(Modulation::kQPSK);
  static const std::vector<cd> qam16 = make(Modulation::kQAM16);
  static const std::vector<cd> qam64 = make(Modulation::kQAM64);
  switch (m) {
    case Modulation::kBPSK: return bpsk;
    case Modulation::kQPSK: return qpsk;
    case Modulation::kQAM16: return qam16;
    case Modulation::kQAM64: return qam64;
  }
  throw std::invalid_argument("unknown modulation");
}

std::vector<double> qam_demodulate_llr(const std::vector<cd>& symbols,
                                       Modulation m,
                                       const std::vector<double>& noise_var) {
  if (noise_var.size() != symbols.size())
    throw std::invalid_argument("noise_var size mismatch");
  const std::size_t bps = bits_per_symbol(m);
  const auto& pts = constellation(m);
  std::vector<double> llrs;
  llrs.reserve(symbols.size() * bps);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const double nv = std::max(noise_var[i], 1e-12);
    for (std::size_t b = 0; b < bps; ++b) {
      double best0 = std::numeric_limits<double>::infinity();
      double best1 = std::numeric_limits<double>::infinity();
      for (std::size_t v = 0; v < pts.size(); ++v) {
        const double d = std::norm(symbols[i] - pts[v]);
        const bool bit = (v >> (bps - 1 - b)) & 1u;
        if (bit)
          best1 = std::min(best1, d);
        else
          best0 = std::min(best0, d);
      }
      llrs.push_back((best1 - best0) / nv);  // >0 means bit 0 likelier
    }
  }
  return llrs;
}

}  // namespace rem::phy
