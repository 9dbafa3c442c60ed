#ifndef E2EBENCH_LAKE_H_
#define E2EBENCH_LAKE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/data/table.h"

// Seeded input generation. Everything here runs on the benchmark's side
// of the line, before any timed call: lakes and serving tables are built
// with src/datagen, written to ADCT or CSV files under the run's work
// directory, and the program under test only ever receives those files.
namespace e2ebench {

struct LakeFile {
  std::string path;
  std::string table;  ///< table name the file must load as
  bool csv = false;   ///< CSV (parsed) or ADCT (mapped)
};

/// A curation lake on disk plus the ground truth the checks need.
struct CurateInputs {
  std::vector<LakeFile> files;
  std::string query;
  size_t max_tables = 1;
  /// Tables the query is meant to select and union.
  std::vector<std::string> target_tables;
  /// Planted entity id of every row of every target table.
  std::map<std::string, std::vector<int64_t>> entity;
  /// Distinct planted entities across the target tables.
  size_t planted_entities = 0;
  /// Largest |rows out - planted| / planted a correct run may show.
  double max_entity_count_err = 0.0;
};

/// curate_dedup: the F1 shape — a dirty product catalog with heavy
/// planted duplicates, typos and nulls plus two distractor tables, all
/// CSV.
CurateInputs WriteDedupLake(uint64_t seed, const std::string& dir);

/// curate_lake: tables from all three datagen domains (CSV) plus the
/// enterprise lake (ADCT). The query's target is a customer table split in three parts
/// under renamed columns, with few duplicates but many nulls and
/// violations of the FD city -> state.
CurateInputs WriteWideLake(uint64_t seed, const std::string& dir);

/// Loads every lake file (CSV parse or ADCT open), in file order.
autodc::Result<std::vector<autodc::data::Table>> LoadLake(
    const CurateInputs& in);

/// One serving table on disk: a planted-duplicate table (the two sides
/// of a datagen ER benchmark stacked into one table).
struct ServeDataset {
  std::string path;
  size_t rows = 0;
  size_t cols = 0;
  size_t numeric_col = 0;  ///< column outlier checks ask about
  /// Planted duplicate row pairs (a < b).
  std::vector<std::pair<size_t, size_t>> planted;
};

/// `count` serving tables alternating the product and citation domains;
/// table i has about `rows[i % rows.size()]` rows.
std::vector<ServeDataset> WriteServeDatasets(uint64_t seed,
                                             const std::string& dir,
                                             size_t count,
                                             const std::vector<size_t>& rows);

}  // namespace e2ebench

#endif  // E2EBENCH_LAKE_H_
