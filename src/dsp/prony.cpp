#include "dsp/prony.hpp"

#include "dsp/matrix.hpp"
#include "dsp/svd.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace rem::dsp {
namespace {

// The solvers below operate on raw pointers into fixed-size stack arrays
// (k <= 4), so a fit allocates nothing beyond the Hankel matrix, its SVD
// and the result.

// Solve the small (n <= 4) linear system A x = b by Gaussian elimination
// with partial pivoting. A is n x n complex, row-major; a and b are
// clobbered. Returns false (x untouched) if singular.
bool solve_small_ptr(cd* a, cd* b, std::size_t n, cd* x) {
  for (std::size_t col = 0; col < n; ++col) {
    // Pivot.
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(a[r * n + col]) > std::abs(a[piv * n + col])) piv = r;
    if (std::abs(a[piv * n + col]) < 1e-14) return false;  // singular
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(a[col * n + c], a[piv * n + c]);
      std::swap(b[col], b[piv]);
    }
    const cd inv = cd(1, 0) / a[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const cd f = a[r * n + col] * inv;
      if (f == cd(0, 0)) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  for (std::size_t row = n; row-- > 0;) {
    cd s = b[row];
    for (std::size_t c = row + 1; c < n; ++c) s -= a[row * n + c] * x[c];
    x[row] = s / a[row * n + row];
  }
  return true;
}

// Eigenvalues of a k x k complex matrix (row-major) for k <= 3 via the
// characteristic polynomial (closed forms). Writes k roots.
void small_eigenvalues_ptr(const cd* m, std::size_t k, cd* roots) {
  if (k == 1) {
    roots[0] = m[0];
    return;
  }
  if (k == 2) {
    const cd tr = m[0] + m[3];
    const cd det = m[0] * m[3] - m[1] * m[2];
    const cd disc = std::sqrt(tr * tr - 4.0 * det);
    roots[0] = (tr + disc) / 2.0;
    roots[1] = (tr - disc) / 2.0;
    return;
  }
  // k == 3: lambda^3 - c2 lambda^2 + c1 lambda - c0 = 0.
  const cd a = m[0], b = m[1], c = m[2];
  const cd d = m[3], e = m[4], f = m[5];
  const cd g = m[6], h = m[7], i = m[8];
  const cd c2 = a + e + i;
  const cd c1 = a * e + a * i + e * i - b * d - c * g - f * h;
  const cd c0 = a * (e * i - f * h) - b * (d * i - f * g) +
                c * (d * h - e * g);
  // Depressed cubic: lambda = t + c2/3.
  const cd p = c1 - c2 * c2 / 3.0;
  const cd q = -c0 + c1 * c2 / 3.0 - 2.0 * c2 * c2 * c2 / 27.0;
  // t^3 + p t + q = 0; Cardano with complex arithmetic.
  const cd sq = std::sqrt(q * q / 4.0 + p * p * p / 27.0);
  cd u3 = -q / 2.0 + sq;
  if (std::abs(u3) < 1e-18) u3 = -q / 2.0 - sq;
  const cd u = std::pow(u3, 1.0 / 3.0);
  const cd omega(-0.5, std::sqrt(3.0) / 2.0);
  for (int r = 0; r < 3; ++r) {
    const cd ur = u * std::pow(omega, r);
    const cd t = std::abs(ur) > 1e-18 ? ur - p / (3.0 * ur) : cd(0, 0);
    roots[r] = t + c2 / 3.0;
  }
}

// Least-squares amplitudes for x[c] ~= sum a_p z_p^c (Vandermonde fit).
// k <= 4; writes k amplitudes (zeros if the normal equations are singular).
void fit_amplitudes_ptr(const cd* seq, std::size_t n, const cd* poles,
                        std::size_t k, cd* amps) {
  // Normal equations: (V* V) a = V* x, V[c][p] = z_p^c.
  std::array<cd, 16> vtv{};
  std::array<cd, 4> vtx{};
  std::array<cd, 4> pw;
  pw.fill(cd(1, 0));
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t p = 0; p < k; ++p) {
      vtx[p] += std::conj(pw[p]) * seq[c];
      for (std::size_t q = 0; q < k; ++q)
        vtv[p * k + q] += std::conj(pw[p]) * pw[q];
    }
    for (std::size_t p = 0; p < k; ++p) pw[p] *= poles[p];
  }
  if (!solve_small_ptr(vtv.data(), vtx.data(), k, amps))
    for (std::size_t p = 0; p < k; ++p) amps[p] = cd(0, 0);
}

// Post-SVD pencil step: given the right singular vectors `v` of the
// Hankel matrix (l + 1 rows, at least k columns), recover the k poles.
void pencil_poles(const Matrix& v, std::size_t l, std::size_t k, cd* poles) {
  // V1 = V_s without last row, V2 = V_s without first row; poles are the
  // eigenvalues of pinv(V1) V2.
  // Normal equations: (V1* V1) F = V1* V2, F is k x k.
  std::array<cd, 9> v1tv1{};
  std::array<cd, 9> f{};
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t q = 0; q < k; ++q) {
      cd acc(0, 0);
      for (std::size_t r = 0; r < l; ++r)
        acc += std::conj(v(r, p)) * v(r, q);
      v1tv1[p * k + q] = acc;
    }
  for (std::size_t col = 0; col < k; ++col) {
    std::array<cd, 9> a = v1tv1;  // solve clobbers its inputs
    std::array<cd, 3> rhs{};
    std::array<cd, 3> x{};
    for (std::size_t p = 0; p < k; ++p) {
      cd acc(0, 0);
      for (std::size_t r = 0; r < l; ++r)
        acc += std::conj(v(r, p)) * v(r + 1, col);
      rhs[p] = acc;
    }
    if (!solve_small_ptr(a.data(), rhs.data(), k, x.data())) x.fill(cd(0, 0));
    for (std::size_t p = 0; p < k; ++p) f[p * k + col] = x[p];
  }
  small_eigenvalues_ptr(f.data(), k, poles);
  // Y(r,c) = sum u_r sigma v*_c, so V's columns carry conj(z)^c and the
  // pencil eigenvalues come out conjugated — undo that.
  for (std::size_t p = 0; p < k; ++p) poles[p] = std::conj(poles[p]);
  // Clamp pole magnitudes near the unit circle (oscillations, not decays;
  // keeps the band-2 extrapolation stable).
  for (std::size_t p = 0; p < k; ++p) {
    const double mag = std::abs(poles[p]);
    if (mag > 1e-12) poles[p] *= std::clamp(mag, 0.8, 1.2) / mag;
  }
}

}  // namespace

std::vector<ExponentialComponent> fit_exponentials(
    const std::vector<cd>& seq, std::size_t max_components,
    double rel_threshold) {
  const std::size_t n = seq.size();
  std::vector<ExponentialComponent> out;
  if (n == 0) return out;
  if (n < 4 || max_components == 1) {
    // Weighted single-ratio fallback for short sequences.
    cd acc(0, 0);
    for (std::size_t c = 0; c + 1 < n; ++c)
      acc += seq[c + 1] * std::conj(seq[c]);
    const cd pole = std::abs(acc) > 1e-15 ? acc / std::abs(acc) : cd(1, 0);
    cd amp;
    fit_amplitudes_ptr(seq.data(), n, &pole, 1, &amp);
    out.push_back({amp, pole});
    return out;
  }

  // Matrix pencil: Hankel Y (rows x (L+1)), signal subspace from SVD.
  const std::size_t max_k = std::min<std::size_t>(max_components, 3);
  const std::size_t l = std::min(n / 2, max_k + 2);  // pencil parameter
  const std::size_t rows = n - l;
  Matrix y(rows, l + 1);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c <= l; ++c) y(r, c) = seq[r + c];
  const auto s = svd(y);
  std::size_t k = 0;
  while (k < s.sigma.size() && k < max_k &&
         s.sigma[k] > rel_threshold * s.sigma[0])
    ++k;
  if (k == 0) k = 1;

  std::array<cd, 3> poles{};
  pencil_poles(s.v, l, k, poles.data());
  std::array<cd, 3> amps{};
  fit_amplitudes_ptr(seq.data(), n, poles.data(), k, amps.data());
  for (std::size_t p = 0; p < k; ++p) out.push_back({amps[p], poles[p]});
  std::sort(out.begin(), out.end(),
            [](const ExponentialComponent& a, const ExponentialComponent& b) {
              return std::abs(a.amplitude) > std::abs(b.amplitude);
            });
  return out;
}

std::vector<cd> eval_exponentials(
    const std::vector<ExponentialComponent>& comps, std::size_t n,
    double angle_scale) {
  std::vector<cd> seq(n, cd(0, 0));
  for (const auto& comp : comps) {
    const double mag = std::abs(comp.pole);
    const double ang = std::arg(comp.pole) * angle_scale;
    const cd z = mag * cd(std::cos(ang), std::sin(ang));
    cd pw(1, 0);
    for (std::size_t c = 0; c < n; ++c) {
      seq[c] += comp.amplitude * pw;
      pw *= z;
    }
  }
  return seq;
}

}  // namespace rem::dsp
