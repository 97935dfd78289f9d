#include "phy/otfs.hpp"

#include "dsp/fft_plan.hpp"

#include <cmath>

namespace rem::phy {
namespace {

// Apply forward (invert=false) or inverse (invert=true) unitary DFT to every
// row of the matrix, in place: rows are contiguous in the row-major storage,
// so each transform runs directly on the matrix buffer with one cached plan
// and one scratch — no per-row temporaries.
void dft_rows(dsp::Matrix& m, bool invert) {
  const std::size_t cols = m.cols();
  if (cols == 0 || m.rows() == 0) return;
  // The plan's inverse already folds in 1/N; sqrt(N) on top yields the
  // unitary 1/sqrt(N) convention in both directions.
  const double scale = invert ? std::sqrt(static_cast<double>(cols))
                              : 1.0 / std::sqrt(static_cast<double>(cols));
  const auto plan = dsp::FftPlan::get(cols);
  dsp::FftScratch scratch;
  dsp::cd* base = m.data().data();
  for (std::size_t r = 0; r < m.rows(); ++r)
    plan->transform(base + r * cols, 1, invert, scale, scratch);
}

// Column counterpart: columns are stride-`cols` views of the same buffer;
// the plan gathers through one reused scratch buffer instead of allocating
// a CVec per column.
void dft_cols(dsp::Matrix& m, bool invert) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  if (rows == 0 || cols == 0) return;
  const double scale = invert ? std::sqrt(static_cast<double>(rows))
                              : 1.0 / std::sqrt(static_cast<double>(rows));
  const auto plan = dsp::FftPlan::get(rows);
  dsp::FftScratch scratch;
  dsp::cd* base = m.data().data();
  for (std::size_t c = 0; c < cols; ++c)
    plan->transform(base + c, cols, invert, scale, scratch);
}

}  // namespace

// Eq. 2: X[n,m] = sum_{k,l} x[k,l] e^{-j2pi(mk/M - nl/N)}
//   = forward DFT along delay (k -> m), inverse DFT along Doppler (l -> n),
// here in the unitary convention.
dsp::Matrix sfft(const dsp::Matrix& dd_grid) {
  dsp::Matrix tf = dd_grid;   // rows: k -> m, cols: l -> n
  dft_cols(tf, false);        // delay axis (rows index) forward DFT
  dft_rows(tf, true);         // Doppler axis inverse DFT
  return tf;
}

dsp::Matrix isfft(const dsp::Matrix& tf_grid) {
  dsp::Matrix dd = tf_grid;
  dft_rows(dd, false);
  dft_cols(dd, true);
  return dd;
}

}  // namespace rem::phy
