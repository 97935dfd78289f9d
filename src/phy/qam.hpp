// Gray-mapped QAM constellations with hard decisions and max-log LLRs.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

namespace rem::phy {

using cd = std::complex<double>;

enum class Modulation { kBPSK, kQPSK, kQAM16, kQAM64 };

/// Bits per symbol for a modulation.
std::size_t bits_per_symbol(Modulation m);

/// Map a bit string (values 0/1) to unit-average-power constellation
/// symbols. The bit count must be a multiple of bits_per_symbol.
std::vector<cd> qam_modulate(const std::vector<std::uint8_t>& bits,
                             Modulation m);

/// Hard-decision demap.
std::vector<std::uint8_t> qam_demodulate_hard(const std::vector<cd>& symbols,
                                              Modulation m);

/// Max-log LLRs, positive = bit 0 more likely. `noise_var` is the complex
/// noise variance per symbol after equalization; per-symbol values allow
/// the equalizer to report reliability (e.g. weak subcarriers).
std::vector<double> qam_demodulate_llr(const std::vector<cd>& symbols,
                                       Modulation m,
                                       const std::vector<double>& noise_var);

/// The constellation points of a modulation (unit average power).
const std::vector<cd>& constellation(Modulation m);

}  // namespace rem::phy
