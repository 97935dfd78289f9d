#include "dsp/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rem::dsp {
namespace {

// One-sided Jacobi on the columns of A (rows >= cols assumed by caller):
// repeatedly apply complex plane rotations to orthogonalize column pairs.
// On convergence the column norms are the singular values, the normalized
// columns form U, and the accumulated rotations form V.
void one_sided_jacobi(Matrix& a, Matrix& v) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  v = Matrix::identity(n);
  const int max_sweeps = 60;
  const double eps = 1e-13;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        // Compute the 2x2 Gram submatrix for columns p, q.
        double app = 0.0, aqq = 0.0;
        cd apq(0, 0);
        for (std::size_t i = 0; i < m; ++i) {
          app += std::norm(a(i, p));
          aqq += std::norm(a(i, q));
          apq += std::conj(a(i, p)) * a(i, q);
        }
        const double abs_apq = std::abs(apq);
        off = std::max(off, abs_apq / (std::sqrt(app * aqq) + 1e-300));
        if (abs_apq <= eps * std::sqrt(app * aqq)) continue;

        // Complex Jacobi rotation: first remove the phase of apq, then a
        // real rotation diagonalizing [[app, |apq|], [|apq|, aqq]].
        const cd phase = apq / abs_apq;
        const double tau = (aqq - app) / (2.0 * abs_apq);
        const double t = (tau >= 0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        const cd sp = s * phase;  // rotation applied with phase correction
        for (std::size_t i = 0; i < m; ++i) {
          const cd aip = a(i, p);
          const cd aiq = a(i, q);
          a(i, p) = c * aip - std::conj(sp) * aiq;
          a(i, q) = sp * aip + c * aiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const cd vip = v(i, p);
          const cd viq = v(i, q);
          v(i, p) = c * vip - std::conj(sp) * viq;
          v(i, q) = sp * vip + c * viq;
        }
      }
    }
    if (off < 1e-12) break;
  }
}

}  // namespace

Matrix SvdResult::reconstruct() const {
  const std::size_t rank = sigma.size();
  Matrix us = u;  // scale U's columns by sigma
  for (std::size_t j = 0; j < rank; ++j)
    for (std::size_t i = 0; i < us.rows(); ++i) us(i, j) *= sigma[j];
  return us * v.adjoint();
}

SvdResult svd(const Matrix& a_in, std::size_t rank_limit,
              double truncate_below) {
  // Work on the tall orientation; transpose back at the end if needed.
  const bool transposed = a_in.rows() < a_in.cols();
  Matrix a = transposed ? a_in.adjoint() : a_in;
  Matrix v;
  one_sided_jacobi(a, v);

  const std::size_t n = a.cols();
  // Column norms = singular values.
  std::vector<double> sig(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) s += std::norm(a(i, j));
    sig[j] = std::sqrt(s);
  }
  // Sort descending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return sig[x] > sig[y]; });

  std::size_t rank = n;
  if (rank_limit > 0) rank = std::min(rank, rank_limit);
  // Drop numerically-zero (or user-truncated) singular values.
  std::size_t keep = 0;
  const double tiny = std::max(truncate_below, sig.empty() ? 0.0
                                               : sig[order[0]] * 1e-12);
  while (keep < rank && sig[order[keep]] > tiny) ++keep;
  rank = std::max<std::size_t>(keep, 1);
  rank = std::min(rank, n);

  SvdResult r;
  r.sigma.resize(rank);
  r.u = Matrix(a.rows(), rank);
  r.v = Matrix(n, rank);
  for (std::size_t j = 0; j < rank; ++j) {
    const std::size_t src = order[j];
    r.sigma[j] = sig[src];
    const double inv = sig[src] > 0 ? 1.0 / sig[src] : 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) r.u(i, j) = a(i, src) * inv;
    for (std::size_t i = 0; i < n; ++i) r.v(i, j) = v(i, src);
  }
  if (transposed) std::swap(r.u, r.v);
  return r;
}

}  // namespace rem::dsp
