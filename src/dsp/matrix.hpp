// Dense complex matrix with the small set of operations REM needs:
// products, adjoints, norms, and element access. Row-major storage.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace rem::dsp {

using cd = std::complex<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, cd(0, 0)) {}

  static Matrix identity(std::size_t n);
  /// Diagonal matrix from real singular-value-style entries.
  static Matrix diagonal(const std::vector<double>& d, std::size_t rows,
                         std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  cd& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const cd& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  const std::vector<cd>& data() const { return data_; }
  std::vector<cd>& data() { return data_; }

  Matrix operator*(const Matrix& rhs) const;
  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix& operator*=(cd scalar);

  /// Conjugate transpose.
  Matrix adjoint() const;
  /// Plain transpose.
  Matrix transpose() const;

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Max |a_ij - b_ij| between two same-shape matrices.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

  /// Extract a column / row as a vector.
  std::vector<cd> col(std::size_t c) const;
  std::vector<cd> row(std::size_t r) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<cd> data_;
};

}  // namespace rem::dsp
