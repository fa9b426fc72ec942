// TPC-H-shaped lineitem/orders data for the TCP workloads, plus the
// per-writer statement streams that churn it.
//
// Shapes follow datagen/tpch.cpp (same columns, same violated Table 5
// FDs: each part has several suppliers, each customer several order
// statuses) with two differences the churn workload needs:
//   * every order lives on one day: its o_orderdate and the l_shipdate of
//     all its lines are that day, so retention by day deletes whole orders;
//   * (l_orderkey, l_linenumber) is a key, so the key-shaped FD
//     l_orderkey, l_linenumber -> l_partkey starts exact and flips only
//     when a witness row is planted.
// Days alternate between the two writers (day % 2 == writer), so each
// writer's statement stream is a pure function of (seed, writer) no
// matter how the two interleave on the server.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "relation/relation.h"
#include "util/rng.h"

namespace fdbench {

namespace relation = fdevolve::relation;

/// Rows per TPC-H scale factor (the dbgen spec counts).
constexpr double kLineitemPerSf = 6000000.0;
constexpr double kOrdersPerSf = 1500000.0;

constexpr int64_t kBaseDate = 19920101;

struct StreamShape {
  int days = 100;              ///< live window, in days
  int orders_per_day = 150;    ///< orders stamped with one day
  int part_card = 2000;        ///< distinct l_partkey values
  int supp_card = 1004;        ///< distinct l_suppkey values
  int cust_card = 1500;        ///< distinct o_custkey values
  int clerk_card = 150;        ///< distinct o_clerk values

  /// Shape of `sf` scale factor with a `days`-day window.
  static StreamShape ForScale(double sf, int days);
  size_t orders() const { return static_cast<size_t>(days) * orders_per_day; }
};

relation::Schema LineitemSchema();
relation::Schema OrdersSchema();

/// One generated order: its lineitem rows and its orders row.
struct Order {
  int64_t orderkey = 0;
  std::vector<std::vector<relation::Value>> lines;
  std::vector<relation::Value> order_row;
};

/// Deterministic order generator: the same (shape, rng) sequence gives
/// the same orders.
Order MakeOrder(const StreamShape& shape, int64_t orderkey, int64_t day,
                fdevolve::util::Rng& rng);

/// SQL literal rendering of one row (parses back to the same values).
std::string RowLiteral(const std::vector<relation::Value>& row);

/// Per day (index = day), the orders on it: (orderkey, line count).
using DayIndex = std::vector<std::vector<std::pair<int64_t, int>>>;

/// Initial relations: `shape.days` days of orders, keys 0..orders()-1.
struct InitialData {
  relation::Relation lineitem;
  relation::Relation orders;
  DayIndex by_day;
};
InitialData MakeInitialData(const StreamShape& shape, uint64_t seed,
                            bool with_orders);

/// One statement of a writer's stream.
struct Stmt {
  enum class Kind { kInsert, kDelete, kUpdate, kFlipViolate, kFlipRecover };
  Kind kind = Kind::kInsert;
  std::string table;
  std::string sql;
};

/// The churn stream of one writer of ingest_churn: multi-row INSERTs of
/// new orders and their lines, day-window retention DELETEs, supplier
/// reassignment UPDATEs, and (writer 0 only, when `plant_flips`) witness
/// insert/delete pairs on the key-shaped FD every `flip_every`-th
/// statement.
class ChurnStream {
 public:
  ChurnStream(const StreamShape& shape, const DayIndex& initial, int writer,
              uint64_t seed, int batch_orders, int flip_every,
              bool plant_flips);

  Stmt Next();

 private:
  void FillBatch();

  struct DayOrders {
    int64_t day = 0;
    std::vector<std::pair<int64_t, int>> orders;  ///< (orderkey, lines)
  };

  StreamShape shape_;
  fdevolve::util::Rng rng_;
  int batch_orders_;
  int flip_every_;
  bool plant_flips_;
  std::deque<DayOrders> days_;  ///< own live days, oldest first
  int64_t head_day_;            ///< own day receiving new orders
  int64_t next_key_;            ///< own next orderkey (stride 2)
  std::deque<Stmt> pending_;
  uint64_t emitted_ = 0;
  bool witness_live_ = false;
  int64_t witness_key_ = 0, witness_line_ = 0, witness_part_ = 0;
};

/// INSERT batches of new lineitem rows for the analyst writer.
class AppendStream {
 public:
  AppendStream(const StreamShape& shape, int64_t first_key, int64_t day,
               uint64_t seed, int batch_orders);
  /// Next INSERT statement.
  std::string Next();

 private:
  StreamShape shape_;
  fdevolve::util::Rng rng_;
  int64_t next_key_;
  int64_t day_;
  int batch_orders_;
};

}  // namespace fdbench
