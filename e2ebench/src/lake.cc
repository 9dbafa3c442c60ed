#include "e2ebench/src/lake.h"

#include <cstdio>
#include <cstdlib>
#include <set>

#include "src/data/csv.h"
#include "src/data/dependencies.h"
#include "src/data/table_file.h"
#include "src/datagen/enterprise.h"
#include "src/datagen/er_benchmark.h"
#include "src/datagen/error_injector.h"

namespace e2ebench {

using autodc::Result;
using autodc::Status;
using autodc::data::Row;
using autodc::data::Schema;
using autodc::data::Table;
using autodc::data::Value;
using autodc::data::ValueType;
namespace datagen = autodc::datagen;

namespace {

// Entity-count error above these means dedup (or discovery, which picks
// the rows dedup sees) broke. Seeds 1-10 measured at most 0.089 on the
// product catalog and 0.22 on the 50-entity customer table, whose few
// duplicates leave weak supervision little to learn from.
constexpr double kDedupMaxErr = 0.2;
constexpr double kLakeMaxErr = 0.35;

// Distinct, reproducible sub-seeds for the generators of one run.
uint64_t SubSeed(uint64_t seed, uint64_t k) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + k * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % 1000000007ULL;
}

// The two sides of an ER benchmark stacked into one table: left rows,
// then right rows. Entity ids: left row i is entity i; a right row is
// its matched left row's entity, or a fresh one.
struct Stacked {
  Table table;
  std::vector<int64_t> entity;
  std::vector<std::pair<size_t, size_t>> planted;
};

Stacked Stack(const datagen::ErBenchmark& b, const std::string& name) {
  Stacked s;
  s.table = Table(b.left.schema(), name);
  size_t left = b.left.num_rows();
  for (size_t r = 0; r < left; ++r) {
    s.table.AppendRow(b.left.row(r));
    s.entity.push_back(static_cast<int64_t>(r));
  }
  std::vector<int64_t> right_entity(b.right.num_rows(), -1);
  for (const auto& [l, r] : b.matches) {
    right_entity[r] = static_cast<int64_t>(l);
    s.planted.emplace_back(l, left + r);
  }
  for (size_t r = 0; r < b.right.num_rows(); ++r) {
    s.table.AppendRow(b.right.row(r));
    s.entity.push_back(right_entity[r] >= 0
                           ? right_entity[r]
                           : static_cast<int64_t>(left + r));
  }
  return s;
}

// A planted-duplicate table of fixed shape: `entities` rows, then
// duplicates of the first `dups` of them (the datagen generator draws
// which entities get a duplicate at random; here every entity gets one
// and only `dups` are kept, so row and pair counts do not vary with the
// seed and neither does the amount of work).
Stacked FixedShape(datagen::ErDomain domain, size_t entities, size_t dups,
                   double dirtiness, double null_rate, double synonym_rate,
                   uint64_t seed, const std::string& name) {
  datagen::ErBenchmarkConfig c;
  c.domain = domain;
  c.num_entities = entities;
  c.overlap = 1.0;
  c.dirtiness = dirtiness;
  c.null_rate = null_rate;
  c.synonym_rate = synonym_rate;
  c.seed = seed;
  datagen::ErBenchmark full = datagen::GenerateErBenchmark(c);
  datagen::ErBenchmark kept;
  kept.left = full.left;
  kept.right = Table(full.right.schema(), "right");
  for (size_t m = 0; m < dups && m < full.matches.size(); ++m) {
    kept.right.AppendRow(full.right.row(full.matches[m].second));
    kept.matches.emplace_back(full.matches[m].first, m);
  }
  return Stack(kept, name);
}

// Aborting here is a generator bug, never a property of the program
// under test, so it is reported as such.
void Must(const Status& s, const std::string& what) {
  if (!s.ok()) {
    std::fprintf(stderr, "input generation failed (%s): %s\n", what.c_str(),
                 s.ToString().c_str());
    std::exit(3);
  }
}

void Write(const Table& t, const std::string& dir, bool csv,
           CurateInputs* in) {
  LakeFile f;
  f.table = t.name();
  f.csv = csv;
  f.path = dir + "/" + t.name() + (csv ? ".csv" : ".adct");
  Must(csv ? autodc::data::WriteCsvFile(t, f.path)
           : autodc::data::WriteTableFile(t, f.path),
       f.path);
  in->files.push_back(f);
}

size_t DistinctEntities(const CurateInputs& in) {
  std::set<int64_t> ids;
  for (const auto& [table, entity] : in.entity) {
    for (int64_t e : entity) ids.insert(e);
  }
  return ids.size();
}

// A rename of `t` with new column names; rows are copied.
Table Renamed(const Table& t, const std::string& name,
              const std::vector<std::string>& columns, size_t begin,
              size_t end) {
  std::vector<autodc::data::Column> cols;
  for (size_t c = 0; c < columns.size(); ++c) {
    cols.push_back({columns[c], t.schema().column(c).type});
  }
  Table out{Schema(cols), name};
  for (size_t r = begin; r < end; ++r) out.AppendRow(t.row(r));
  return out;
}

}  // namespace

CurateInputs WriteDedupLake(uint64_t seed, const std::string& dir) {
  CurateInputs in;
  Stacked catalog = FixedShape(datagen::ErDomain::kProducts, 90, 54, 0.25,
                               0.12, 0.0, SubSeed(seed, 1), "product_catalog");
  Stacked people = FixedShape(datagen::ErDomain::kPersons, 60, 0, 0.4, 0.05,
                              0.3, SubSeed(seed, 2), "employee_directory");
  Stacked papers = FixedShape(datagen::ErDomain::kCitations, 60, 0, 0.4,
                              0.05, 0.3, SubSeed(seed, 3), "publication_list");
  Write(people.table, dir, true, &in);
  Write(catalog.table, dir, true, &in);
  Write(papers.table, dir, true, &in);
  in.query = "product brand model price catalog";
  in.max_tables = 1;
  in.target_tables = {"product_catalog"};
  in.entity["product_catalog"] = catalog.entity;
  in.planted_entities = DistinctEntities(in);
  in.max_entity_count_err = kDedupMaxErr;
  return in;
}

CurateInputs WriteWideLake(uint64_t seed, const std::string& dir) {
  CurateInputs in;
  // The target: customers with few duplicates, a state column that the
  // city determines, then nulls and FD violations injected on top.
  Stacked people = FixedShape(datagen::ErDomain::kPersons, 50, 15, 0.15, 0.0,
                              0.0, SubSeed(seed, 11), "customers");
  static const char* const kStates[] = {"ohio", "texas", "oregon",
                                        "maine", "utah", "iowa"};
  std::vector<autodc::data::Column> cols = people.table.schema().columns();
  cols.push_back({"state", ValueType::kString});
  Table with_state{Schema(cols), "customers"};
  for (size_t r = 0; r < people.table.num_rows(); ++r) {
    Row row = people.table.row(r);
    uint64_t h = 1469598103934665603ULL;
    for (char ch : row[1].is_null() ? std::string() : row[1].ToString()) {
      h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
    }
    row.push_back(Value(std::string(kStates[h % 6])));
    with_state.AppendRow(std::move(row));
  }
  datagen::ErrorInjectionConfig ecfg;
  ecfg.typo_rate = 0.0;
  ecfg.null_rate = 0.15;
  ecfg.fd_violation_rate = 0.1;
  ecfg.outlier_rate = 0.0;
  ecfg.seed = SubSeed(seed, 12);
  Table dirty = datagen::InjectErrors(
                    with_state, {autodc::data::FunctionalDependency{{1}, 5}},
                    ecfg)
                    .dirty;

  // Three parts of the target under different column names.
  size_t n = dirty.num_rows();
  size_t cut1 = n / 3, cut2 = 2 * n / 3;
  Table parts[] = {
      Renamed(dirty, "customer_contacts",
              {"name", "city", "street", "phone", "email", "state"}, 0, cut1),
      Renamed(dirty, "customer_contacts_2021",
              {"full_name", "town", "street", "telephone", "email", "state"},
              cut1, cut2),
      Renamed(dirty, "customer_contacts_2022",
              {"holder", "city", "address", "phone", "mail", "region"}, cut2,
              n)};
  size_t begins[] = {0, cut1, cut2};
  size_t ends[] = {cut1, cut2, n};
  for (int p = 0; p < 3; ++p) {
    Write(parts[p], dir, true, &in);
    in.target_tables.push_back(parts[p].name());
    in.entity[parts[p].name()] =
        std::vector<int64_t>(people.entity.begin() + begins[p],
                             people.entity.begin() + ends[p]);
  }

  // Distractors: the other two ER domains and the enterprise lake.
  Stacked products = FixedShape(datagen::ErDomain::kProducts, 480, 240, 0.3,
                                0.05, 0.2, SubSeed(seed, 13),
                                "product_listing");
  Write(products.table, dir, true, &in);
  Stacked papers = FixedShape(datagen::ErDomain::kCitations, 480, 240, 0.3,
                              0.05, 0.2, SubSeed(seed, 14), "paper_index");
  Write(papers.table, dir, true, &in);
  datagen::EnterpriseConfig ent;
  ent.rows_per_table = 200;
  ent.seed = SubSeed(seed, 15);
  for (const Table& t : datagen::GenerateEnterpriseLake(ent).tables) {
    Write(t, dir, false, &in);
  }

  in.query = "customer contacts city street springfield riverton fairview greenville";
  in.max_tables = 3;
  in.planted_entities = DistinctEntities(in);
  in.max_entity_count_err = kLakeMaxErr;
  return in;
}

Result<std::vector<Table>> LoadLake(const CurateInputs& in) {
  std::vector<Table> tables;
  tables.reserve(in.files.size());
  for (const LakeFile& f : in.files) {
    Result<Table> t = f.csv ? autodc::data::ReadCsvFile(f.path)
                            : autodc::data::OpenTableFile(f.path);
    if (!t.ok()) return t.status();
    Table table = std::move(t).ValueOrDie();
    table.set_name(f.table);
    tables.push_back(std::move(table));
  }
  return tables;
}

std::vector<ServeDataset> WriteServeDatasets(uint64_t seed,
                                             const std::string& dir,
                                             size_t count,
                                             const std::vector<size_t>& rows) {
  std::vector<ServeDataset> out;
  for (size_t i = 0; i < count; ++i) {
    bool products = i % 2 == 0;
    size_t entities = rows[i % rows.size()] * 2 / 3;
    Stacked s = FixedShape(products ? datagen::ErDomain::kProducts
                                    : datagen::ErDomain::kCitations,
                           entities, entities / 2, 0.3, 0.05, 0.2,
                           SubSeed(seed, 100 + i),
                           "serving_" + std::to_string(i));
    ServeDataset d;
    d.path = dir + "/serving_" + std::to_string(i) + ".adct";
    d.rows = s.table.num_rows();
    d.cols = s.table.num_columns();
    d.numeric_col = 3;  // price (products) or year (citations)
    d.planted = s.planted;
    Must(autodc::data::WriteTableFile(s.table, d.path), d.path);
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace e2ebench
