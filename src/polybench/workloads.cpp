#include "polybench/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

namespace tdo::pb {

namespace {

using Matrix = std::vector<float>;

[[nodiscard]] std::string format(const char* fmt, auto... args) {
  char buf[2048];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

/// PolyBench-style deterministic init, bounded to [-1, 1].
[[nodiscard]] Matrix init_matrix(std::int64_t rows, std::int64_t cols,
                                 int salt) {
  Matrix m(static_cast<std::size_t>(rows * cols));
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      const auto v = static_cast<double>((i * (j + salt) + salt) % 13 - 6) / 6.0;
      m[static_cast<std::size_t>(i * cols + j)] = static_cast<float>(v);
    }
  }
  return m;
}

/// Double-precision GEMM: C = alpha*A*B + beta*C. Loops i-k-j over a row
/// of accumulators so the inner loop runs along rows of B; each output still
/// sums its products in ascending kk order.
void dgemm(std::int64_t m, std::int64_t n, std::int64_t k, double alpha,
           const Matrix& a, const Matrix& b, double beta, Matrix& c) {
  std::vector<double> acc(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double a_ik = a[i * k + kk];
      const float* b_row = &b[kk * n];
      for (std::int64_t j = 0; j < n; ++j) acc[j] += a_ik * b_row[j];
    }
    for (std::int64_t j = 0; j < n; ++j) {
      c[i * n + j] = static_cast<float>(alpha * acc[j] + beta * c[i * n + j]);
    }
  }
}

}  // namespace

double gemm_tolerance(double alpha, std::int64_t k, double range) {
  const double e = range / 127.0;  // quantization step at max-abs `range`
  return std::abs(alpha) * static_cast<double>(k) * (2.0 * range * e + e * e) +
         1e-3;
}

Workload make_gemm(Preset preset) {
  const std::int64_t n = preset == Preset::kTest ? 48 : 256;
  const double alpha = 1.5;
  const double beta = 1.2;
  Workload w;
  w.name = "gemm";
  w.source = format(R"(
kernel gemm(NI = %lld, NJ = %lld, NK = %lld, alpha = 1.5, beta = 1.2) {
  array float A[NI][NK];
  array float B[NK][NJ];
  array float C[NI][NJ];
  for (i = 0; i < NI; i++)
    for (j = 0; j < NJ; j++) {
      C[i][j] = beta * C[i][j];
      for (k = 0; k < NK; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
    }
}
)",
                    static_cast<long long>(n), static_cast<long long>(n),
                    static_cast<long long>(n));
  w.inputs["A"] = init_matrix(n, n, 1);
  w.inputs["B"] = init_matrix(n, n, 2);
  w.inputs["C"] = init_matrix(n, n, 3);
  Matrix c = w.inputs["C"];
  dgemm(n, n, n, alpha, w.inputs["A"], w.inputs["B"], beta, c);
  w.expected["C"] = std::move(c);
  w.outputs = {"C"};
  w.tolerance = gemm_tolerance(alpha, n);
  return w;
}

Workload make_2mm(Preset preset) {
  const std::int64_t n = preset == Preset::kTest ? 40 : 192;
  const double alpha = 1.2;
  const double beta = 0.8;
  Workload w;
  w.name = "2mm";
  w.source = format(R"(
kernel two_mm(NI = %lld, alpha = 1.2, beta = 0.8) {
  array float A[NI][NI];
  array float B[NI][NI];
  array float tmp[NI][NI];
  array float C[NI][NI];
  array float D[NI][NI];
  for (i = 0; i < NI; i++)
    for (j = 0; j < NI; j++) {
      tmp[i][j] = 0.0;
      for (k = 0; k < NI; k++)
        tmp[i][j] += alpha * A[i][k] * B[k][j];
    }
  for (i = 0; i < NI; i++)
    for (j = 0; j < NI; j++) {
      D[i][j] = beta * D[i][j];
      for (k = 0; k < NI; k++)
        D[i][j] += tmp[i][k] * C[k][j];
    }
}
)",
                    static_cast<long long>(n));
  w.inputs["A"] = init_matrix(n, n, 1);
  w.inputs["B"] = init_matrix(n, n, 2);
  w.inputs["C"] = init_matrix(n, n, 4);
  w.inputs["D"] = init_matrix(n, n, 5);
  w.inputs["tmp"] = Matrix(static_cast<std::size_t>(n * n), 0.0f);
  Matrix tmp(static_cast<std::size_t>(n * n), 0.0f);
  dgemm(n, n, n, alpha, w.inputs["A"], w.inputs["B"], 0.0, tmp);
  Matrix d = w.inputs["D"];
  dgemm(n, n, n, 1.0, tmp, w.inputs["C"], beta, d);
  w.expected["tmp"] = std::move(tmp);
  w.expected["D"] = std::move(d);
  w.outputs = {"tmp", "D"};
  // Two chained quantized GEMMs: first-stage error propagates through the
  // second reduction.
  const double tol1 = gemm_tolerance(alpha, n);
  w.tolerance = gemm_tolerance(1.0, n, /*range=*/alpha * n / 6.0) +
                static_cast<double>(n) * tol1;
  return w;
}

Workload make_3mm(Preset preset) {
  const std::int64_t n = preset == Preset::kTest ? 36 : 160;
  Workload w;
  w.name = "3mm";
  w.source = format(R"(
kernel three_mm(N = %lld) {
  array float A[N][N];
  array float B[N][N];
  array float C[N][N];
  array float D[N][N];
  array float E[N][N];
  array float F[N][N];
  array float G[N][N];
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++) {
      E[i][j] = 0.0;
      for (k = 0; k < N; k++)
        E[i][j] += A[i][k] * B[k][j];
    }
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++) {
      F[i][j] = 0.0;
      for (k = 0; k < N; k++)
        F[i][j] += C[i][k] * D[k][j];
    }
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++) {
      G[i][j] = 0.0;
      for (k = 0; k < N; k++)
        G[i][j] += E[i][k] * F[k][j];
    }
}
)",
                    static_cast<long long>(n));
  w.inputs["A"] = init_matrix(n, n, 1);
  w.inputs["B"] = init_matrix(n, n, 2);
  w.inputs["C"] = init_matrix(n, n, 3);
  w.inputs["D"] = init_matrix(n, n, 4);
  w.inputs["E"] = Matrix(static_cast<std::size_t>(n * n), 0.0f);
  w.inputs["F"] = Matrix(static_cast<std::size_t>(n * n), 0.0f);
  w.inputs["G"] = Matrix(static_cast<std::size_t>(n * n), 0.0f);
  Matrix e(static_cast<std::size_t>(n * n), 0.0f);
  Matrix f(static_cast<std::size_t>(n * n), 0.0f);
  Matrix g(static_cast<std::size_t>(n * n), 0.0f);
  dgemm(n, n, n, 1.0, w.inputs["A"], w.inputs["B"], 0.0, e);
  dgemm(n, n, n, 1.0, w.inputs["C"], w.inputs["D"], 0.0, f);
  dgemm(n, n, n, 1.0, e, f, 0.0, g);
  w.expected["E"] = std::move(e);
  w.expected["F"] = std::move(f);
  w.expected["G"] = std::move(g);
  w.outputs = {"E", "F", "G"};
  const double tol1 = gemm_tolerance(1.0, n);
  w.tolerance = gemm_tolerance(1.0, n, /*range=*/n / 6.0) +
                2.0 * static_cast<double>(n) * tol1;
  return w;
}

Workload make_conv(Preset preset) {
  const std::int64_t h = preset == Preset::kTest ? 40 : 512;
  const std::int64_t ww = preset == Preset::kTest ? 300 : 1024;
  // PolyBench 2D convolution coefficients.
  const double c[3][3] = {{0.2, 0.5, -0.8}, {-0.3, 0.6, -0.9}, {0.4, 0.7, 0.1}};
  Workload w;
  w.name = "conv";
  w.source = format(R"(
kernel conv2d(H = %lld, W = %lld,
              c11 = 0.2, c12 = 0.5, c13 = -0.8,
              c21 = -0.3, c22 = 0.6, c23 = -0.9,
              c31 = 0.4, c32 = 0.7, c33 = 0.1) {
  array float img[H][W];
  array float out[H][W];
  for (i = 0; i < H - 2; i++)
    for (j = 0; j < W - 2; j++)
      out[i][j] = c11 * img[i][j] + c12 * img[i][j + 1] + c13 * img[i][j + 2]
                + c21 * img[i + 1][j] + c22 * img[i + 1][j + 1] + c23 * img[i + 1][j + 2]
                + c31 * img[i + 2][j] + c32 * img[i + 2][j + 1] + c33 * img[i + 2][j + 2];
}
)",
                    static_cast<long long>(h), static_cast<long long>(ww));
  w.inputs["img"] = init_matrix(h, ww, 7);
  w.inputs["out"] = Matrix(static_cast<std::size_t>(h * ww), 0.0f);
  Matrix out(static_cast<std::size_t>(h * ww), 0.0f);
  const Matrix& img = w.inputs["img"];
  for (std::int64_t i = 0; i < h - 2; ++i) {
    for (std::int64_t j = 0; j < ww - 2; ++j) {
      double acc = 0.0;
      for (int di = 0; di < 3; ++di) {
        for (int dj = 0; dj < 3; ++dj) {
          acc += c[di][dj] * img[(i + di) * ww + (j + dj)];
        }
      }
      out[i * ww + j] = static_cast<float>(acc);
    }
  }
  w.expected["out"] = std::move(out);
  w.outputs = {"out"};
  // Toeplitz lowering reduces over k = W+taps-1 with sparse weights; the
  // effective reduction length is 9 taps but quantization error scales with
  // the full crossbar row count conservatively.
  w.tolerance = gemm_tolerance(1.0, ww + 2);
  return w;
}

Workload make_gesummv(Preset preset) {
  const std::int64_t n = preset == Preset::kTest ? 64 : 512;
  const double alpha = 1.3;
  const double beta = 0.7;
  Workload w;
  w.name = "gesummv";
  w.source = format(R"(
kernel gesummv(N = %lld, alpha = 1.3, beta = 0.7) {
  array float A[N][N];
  array float B[N][N];
  array float x[N];
  array float tmp[N];
  array float y[N];
  for (i = 0; i < N; i++) {
    tmp[i] = 0.0;
    y[i] = 0.0;
    for (j = 0; j < N; j++) {
      tmp[i] += A[i][j] * x[j];
      y[i] += B[i][j] * x[j];
    }
    y[i] = alpha * tmp[i] + beta * y[i];
  }
}
)",
                    static_cast<long long>(n));
  w.inputs["A"] = init_matrix(n, n, 1);
  w.inputs["B"] = init_matrix(n, n, 2);
  w.inputs["x"] = init_matrix(n, 1, 3);
  w.inputs["tmp"] = Matrix(static_cast<std::size_t>(n), 0.0f);
  w.inputs["y"] = Matrix(static_cast<std::size_t>(n), 0.0f);
  Matrix tmp(static_cast<std::size_t>(n), 0.0f);
  Matrix y(static_cast<std::size_t>(n), 0.0f);
  const Matrix& a = w.inputs["A"];
  const Matrix& b = w.inputs["B"];
  const Matrix& x = w.inputs["x"];
  for (std::int64_t i = 0; i < n; ++i) {
    double t_acc = 0.0;
    double y_acc = 0.0;
    for (std::int64_t j = 0; j < n; ++j) {
      t_acc += static_cast<double>(a[i * n + j]) * x[j];
      y_acc += static_cast<double>(b[i * n + j]) * x[j];
    }
    tmp[i] = static_cast<float>(t_acc);
    y[i] = static_cast<float>(alpha * t_acc + beta * y_acc);
  }
  w.expected["tmp"] = std::move(tmp);
  w.expected["y"] = std::move(y);
  w.outputs = {"tmp", "y"};
  w.tolerance = (std::abs(alpha) + std::abs(beta)) * gemm_tolerance(1.0, n);
  return w;
}

Workload make_bicg(Preset preset) {
  const std::int64_t n = preset == Preset::kTest ? 64 : 512;
  Workload w;
  w.name = "bicg";
  w.source = format(R"(
kernel bicg(N = %lld, M = %lld) {
  array float A[N][M];
  array float s[M];
  array float q[N];
  array float p[M];
  array float r[N];
  for (i = 0; i < M; i++)
    s[i] = 0.0;
  for (i = 0; i < N; i++) {
    q[i] = 0.0;
    for (j = 0; j < M; j++) {
      s[j] += r[i] * A[i][j];
      q[i] += A[i][j] * p[j];
    }
  }
}
)",
                    static_cast<long long>(n), static_cast<long long>(n));
  w.inputs["A"] = init_matrix(n, n, 1);
  w.inputs["p"] = init_matrix(n, 1, 2);
  w.inputs["r"] = init_matrix(n, 1, 3);
  w.inputs["s"] = Matrix(static_cast<std::size_t>(n), 0.0f);
  w.inputs["q"] = Matrix(static_cast<std::size_t>(n), 0.0f);
  Matrix s(static_cast<std::size_t>(n), 0.0f);
  Matrix q(static_cast<std::size_t>(n), 0.0f);
  const Matrix& a = w.inputs["A"];
  for (std::int64_t i = 0; i < n; ++i) {
    double q_acc = 0.0;
    for (std::int64_t j = 0; j < n; ++j) {
      s[j] += static_cast<float>(static_cast<double>(w.inputs["r"][i]) *
                                 a[i * n + j]);
      q_acc += static_cast<double>(a[i * n + j]) * w.inputs["p"][j];
    }
    q[i] = static_cast<float>(q_acc);
  }
  w.expected["s"] = std::move(s);
  w.expected["q"] = std::move(q);
  w.outputs = {"s", "q"};
  w.tolerance = gemm_tolerance(1.0, n);
  return w;
}

Workload make_mvt(Preset preset) {
  const std::int64_t n = preset == Preset::kTest ? 64 : 512;
  Workload w;
  w.name = "mvt";
  w.source = format(R"(
kernel mvt(N = %lld) {
  array float A[N][N];
  array float x1[N];
  array float x2[N];
  array float y1[N];
  array float y2[N];
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      x1[i] += A[i][j] * y1[j];
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      x2[i] += A[j][i] * y2[j];
}
)",
                    static_cast<long long>(n));
  w.inputs["A"] = init_matrix(n, n, 1);
  w.inputs["x1"] = init_matrix(n, 1, 2);
  w.inputs["x2"] = init_matrix(n, 1, 3);
  w.inputs["y1"] = init_matrix(n, 1, 4);
  w.inputs["y2"] = init_matrix(n, 1, 5);
  Matrix x1 = w.inputs["x1"];
  Matrix x2 = w.inputs["x2"];
  const Matrix& a = w.inputs["A"];
  for (std::int64_t i = 0; i < n; ++i) {
    double acc1 = static_cast<double>(x1[i]);
    double acc2 = static_cast<double>(x2[i]);
    for (std::int64_t j = 0; j < n; ++j) {
      acc1 += static_cast<double>(a[i * n + j]) * w.inputs["y1"][j];
      acc2 += static_cast<double>(a[j * n + i]) * w.inputs["y2"][j];
    }
    x1[i] = static_cast<float>(acc1);
    x2[i] = static_cast<float>(acc2);
  }
  w.expected["x1"] = std::move(x1);
  w.expected["x2"] = std::move(x2);
  w.outputs = {"x1", "x2"};
  w.tolerance = gemm_tolerance(1.0, n);
  return w;
}

const std::vector<std::string>& kernel_names() {
  static const std::vector<std::string> kNames = {
      "2mm", "3mm", "gemm", "conv", "gesummv", "bicg", "mvt"};
  return kNames;
}

support::StatusOr<Workload> make_workload(const std::string& name,
                                          Preset preset) {
  if (name == "gemm") return make_gemm(preset);
  if (name == "2mm") return make_2mm(preset);
  if (name == "3mm") return make_3mm(preset);
  if (name == "conv") return make_conv(preset);
  if (name == "gesummv") return make_gesummv(preset);
  if (name == "bicg") return make_bicg(preset);
  if (name == "mvt") return make_mvt(preset);
  return support::not_found("unknown kernel " + name);
}

}  // namespace tdo::pb
