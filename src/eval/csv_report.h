// CSV result sink for the benchmark harness: every figure bench prints
// human-readable tables to stdout and, when SIMPUSH_BENCH_CSV_DIR is
// set, additionally appends machine-readable rows for plotting —
// regenerating the paper's figures from a run is then a gnuplot/
// matplotlib one-liner over these files.
//
// Format rules (RFC-4180 flavored): header row written once per file,
// fields quoted only when they contain a comma/quote/newline, '.' as
// the decimal separator regardless of locale.

#ifndef SIMPUSH_EVAL_CSV_REPORT_H_
#define SIMPUSH_EVAL_CSV_REPORT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"

namespace simpush {

/// Append-oriented CSV writer with one fixed header.
class CsvWriter {
 public:
  /// Opens (creates or truncates) `path` and writes the header row.
  static StatusOr<CsvWriter> Create(const std::string& path,
                                    const std::vector<std::string>& header);

  CsvWriter(CsvWriter&& other) noexcept;
  CsvWriter& operator=(CsvWriter&& other) noexcept;
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;
  ~CsvWriter();

  /// Appends one row. InvalidArgument when the field count does not
  /// match the header.
  Status AppendRow(const std::vector<std::string>& fields);

  /// Convenience for mixed rows: doubles rendered with %.6g.
  class RowBuilder {
   public:
    RowBuilder& Add(const std::string& value);
    RowBuilder& Add(double value);
    RowBuilder& Add(uint64_t value);
    const std::vector<std::string>& fields() const { return fields_; }

   private:
    std::vector<std::string> fields_;
  };

  /// Flushes and closes; returns the first error, if any.
  Status Finish();

 private:
  CsvWriter(FILE* file, size_t num_columns)
      : file_(file), num_columns_(num_columns) {}
  void WriteRaw(const std::string& line);

  FILE* file_ = nullptr;
  size_t num_columns_ = 0;
  bool failed_ = false;
};

/// Escapes one CSV field per RFC 4180 (quotes only when needed).
std::string CsvEscape(const std::string& field);

/// Directory from SIMPUSH_BENCH_CSV_DIR, or empty when unset.
std::string BenchCsvDir();

}  // namespace simpush

#endif  // SIMPUSH_EVAL_CSV_REPORT_H_
