#include "common.hpp"

#include <sys/resource.h>

#include <cstdlib>
#include <cstring>

#include "slu/slu.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"

namespace perfbench {

double distRelResidual(const lisi::sparse::DistCsrMatrix& a,
                       std::span<const double> b, std::span<const double> x,
                       double shift) {
  std::vector<double> r(b.size());
  a.spmv(x, std::span<double>(r));
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i] - shift * x[i];
  const double rn = lisi::sparse::distNorm2(a.comm(), r);
  const double bn = lisi::sparse::distNorm2(a.comm(), b);
  return bn > 0.0 ? rn / bn : rn;
}

double relResidual(const lisi::sparse::CsrMatrix& a, std::span<const double> b,
                   std::span<const double> x) {
  if (x.size() != b.size()) return INFINITY;
  std::vector<double> r(b.size());
  lisi::sparse::spmv(a, x, std::span<double>(r));
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  const double bn = lisi::sparse::norm2(b);
  const double rn = lisi::sparse::norm2(r);
  return bn > 0.0 ? rn / bn : rn;
}

std::vector<double> seededSlice(std::uint64_t seed, std::uint64_t stream,
                                std::uint64_t index, int first, int count) {
  lisi::Rng rng = streamRng(seed, stream, index);
  for (int i = 0; i < first; ++i) (void)rng.next();
  std::vector<double> out(static_cast<std::size_t>(count));
  for (double& v : out) v = rng.uniform(-1.0, 1.0);
  return out;
}

std::shared_ptr<lisi::SparseSolver> instantiatePort(cca::Framework& fw,
                                                    const std::string& name,
                                                    const char* cls) {
  fw.instantiate(name, cls);
  return fw.getProvidesPortAs<lisi::SparseSolver>(name,
                                                  lisi::kSparseSolverPortName);
}

int describeRows(lisi::SparseSolver& port, long handle, int startRow,
                 int localRows, int localNnz, int globalN) {
  int rc = port.initialize(handle);
  if (rc == 0) rc = port.setStartRow(startRow);
  if (rc == 0) rc = port.setLocalRows(localRows);
  if (rc == 0) rc = port.setLocalNNZ(localNnz);
  if (rc == 0) rc = port.setGlobalCols(globalN);
  return rc;
}

int setupCsr(lisi::SparseSolver& port, const lisi::sparse::CsrMatrix& a) {
  const int m = a.rows;
  return port.setupMatrix(
      lisi::RArray<const double>(a.values.data(), a.nnz()),
      lisi::RArray<const int>(a.rowPtr.data(), m + 1),
      lisi::RArray<const int>(a.colIdx.data(), a.nnz()),
      lisi::SparseStruct::kCsr, m + 1, a.nnz());
}

int setupCoo(lisi::SparseSolver& port, std::span<const double> values,
             std::span<const int> rows, std::span<const int> cols) {
  const int nnz = static_cast<int>(values.size());
  return port.setupMatrix(lisi::RArray<const double>(values.data(), nnz),
                          lisi::RArray<const int>(rows.data(), nnz),
                          lisi::RArray<const int>(cols.data(), nnz), nnz);
}

int setupRhs(lisi::SparseSolver& port, std::span<const double> b) {
  const int m = static_cast<int>(b.size());
  return port.setupRHS(lisi::RArray<const double>(b.data(), m), m, 1);
}

int solvePort(lisi::SparseSolver& port, std::span<double> x,
              std::span<double> status) {
  const int m = static_cast<int>(x.size());
  return port.solve(lisi::RArray<double>(x.data(), m),
                    lisi::RArray<double>(status.data(), lisi::kStatusLength),
                    m, lisi::kStatusLength);
}

int setKrylovParams(lisi::SparseSolver& port) {
  int rc = port.set("solver", "gmres");
  if (rc == 0) rc = port.set("preconditioner", "ilu");
  if (rc == 0) rc = port.setDouble("tol", kRtol);
  if (rc == 0) rc = port.setInt("maxits", kMaxIts);
  if (rc == 0) rc = port.setInt("restart", kRestart);
  return rc;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

HostTicks hostTicks() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  HostTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  char line[512];
  if (std::fgets(line, sizeof line, f) != nullptr &&
      std::strncmp(line, "cpu ", 4) == 0) {
    char* p = line + 4;
    for (int field = 0;; ++field) {
      char* end = nullptr;
      const long long v = std::strtoll(p, &end, 10);
      if (end == p) break;
      if (field == 7) t.steal = v;
      t.total += v;
      p = end;
    }
  }
  std::fclose(f);
  return t;
}

double stealShare(const HostTicks& before, const HostTicks& after) {
  const long long total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

std::vector<bool> selectUndisturbed(const std::vector<double>& steal,
                                    const std::vector<long long>& weight,
                                    long long minWeight) {
  std::vector<bool> keep(steal.size(), false);
  std::vector<std::size_t> rest;
  long long kept = 0;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= kMaxStealShare) {
      keep[i] = true;
      kept += weight[i];
    } else {
      rest.push_back(i);
    }
  }
  std::stable_sort(rest.begin(), rest.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  for (std::size_t i = 0; i < rest.size() && kept < minWeight; ++i) {
    keep[rest[i]] = true;
    kept += weight[rest[i]];
  }
  return keep;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double hostCalibrationMs() {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 64;
  lisi::sparse::CsrMatrix a = lisi::mesh::assembleGlobal(spec).localA;
  for (int i = 0; i < a.rows; ++i) {
    for (int p = a.rowPtr[static_cast<std::size_t>(i)];
         p < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++p) {
      if (a.colIdx[static_cast<std::size_t>(p)] == i) {
        a.values[static_cast<std::size_t>(p)] += 1.0 / kDtMax;
      }
    }
  }
  const lisi::sparse::CscMatrix csc = lisi::sparse::csrToCsc(a);
  slu::Factorization f = slu::Factorization::factorize(csc);
  std::vector<double> ms;
  for (int r = 0; r < 9; ++r) {
    const Clock::time_point t0 = Clock::now();
    f.refactorize(csc);
    ms.push_back(secondsSince(t0) * 1e3);
  }
  return median(ms);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::info(const std::string& key, const std::string& rawJson) {
  info_.emplace_back(key, rawJson);
}

void Report::info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  info_.emplace_back(key, std::isfinite(value) ? buf : "null");
}

void Report::infoString(const std::string& key, const std::string& value) {
  info_.emplace_back(key, "\"" + value + "\"");
}

void Report::print(const std::string& workload, const std::string& mode) const {
  std::printf("{\"workload\": \"%s\", \"mode\": \"%s\", \"attempted\": %lld, "
              "\"failed\": %lld, \"metrics\": {",
              workload.c_str(), mode.c_str(), attempted, failed);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    if (std::isfinite(vu.first)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), vu.first, vu.second.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), vu.second.c_str());
    }
  }
  std::printf("}, \"info\": {");
  for (std::size_t i = 0; i < info_.size(); ++i) {
    std::printf("%s\"%s\": %s", i ? ", " : "", info_[i].first.c_str(),
                info_[i].second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
