#include "dsp/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rem::dsp {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = cd(1, 0);
  return m;
}

Matrix Matrix::diagonal(const std::vector<double>& d, std::size_t rows,
                        std::size_t cols) {
  Matrix m(rows, cols);
  const std::size_t n = std::min({d.size(), rows, cols});
  for (std::size_t i = 0; i < n; ++i) m(i, i) = cd(d[i], 0);
  return m;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_)
    throw std::invalid_argument("Matrix product shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const cd a = (*this)(i, k);
      if (a == cd(0, 0)) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += a * rhs(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix sum shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix difference shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix& Matrix::operator*=(cd scalar) {
  for (auto& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::adjoint() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j)
      out(j, i) = std::conj((*this)(i, j));
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (const auto& x : data_) s += std::norm(x);
  return std::sqrt(s);
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("max_abs_diff shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i)
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  return m;
}

std::vector<cd> Matrix::col(std::size_t c) const {
  std::vector<cd> out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, c);
  return out;
}

std::vector<cd> Matrix::row(std::size_t r) const {
  std::vector<cd> out(cols_);
  for (std::size_t j = 0; j < cols_; ++j) out[j] = (*this)(r, j);
  return out;
}

}  // namespace rem::dsp
