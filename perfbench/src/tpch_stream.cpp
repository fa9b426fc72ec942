#include "tpch_stream.h"

#include <algorithm>
#include <cstdio>

#include "util/hash.h"

namespace fdbench {

using fdevolve::relation::DataType;
using fdevolve::relation::Relation;
using fdevolve::relation::Schema;
using fdevolve::relation::Value;

namespace {

int64_t HashMod(std::initializer_list<uint64_t> parts, uint64_t salt,
                uint64_t mod) {
  uint64_t h = fdevolve::util::Mix64(salt);
  for (uint64_t p : parts) h = fdevolve::util::HashCombine(h, p);
  return static_cast<int64_t>(h % mod);
}

std::vector<Value> MakeLine(const StreamShape& shape, int64_t orderkey,
                            int64_t linenumber, int64_t partkey, int64_t day,
                            fdevolve::util::Rng& rng) {
  uint64_t mode = rng.Below(7);
  uint64_t instr = rng.Below(4);
  int64_t ship = kBaseDate + day;
  // suppkey = f(partkey, shipmode, shipinstruct), as in datagen::MakeTpch:
  // l_partkey -> l_suppkey is violated with a 2-attribute repair.
  int64_t supp = HashMod({static_cast<uint64_t>(partkey), mode, instr}, 0x11,
                         static_cast<uint64_t>(shape.supp_card));
  return {orderkey,
          partkey,
          supp,
          linenumber,
          static_cast<int64_t>(rng.Below(50) + 1),
          static_cast<double>(rng.Below(100000)) / 100.0,
          static_cast<double>(rng.Below(11)) / 100.0,
          static_cast<double>(rng.Below(9)) / 100.0,
          std::string(1, static_cast<char>('A' + rng.Below(3))),
          std::string(1, static_cast<char>('F' + rng.Below(2))),
          ship,
          ship + static_cast<int64_t>(rng.Below(60)),
          ship + static_cast<int64_t>(rng.Below(90)),
          "INSTR_" + std::to_string(instr),
          "MODE_" + std::to_string(mode),
          "comment " + rng.Ident(4)};
}

std::string InsertSql(const std::string& table,
                      const std::vector<std::vector<Value>>& rows) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i) sql += ", ";
    sql += RowLiteral(rows[i]);
  }
  return sql;
}

}  // namespace

StreamShape StreamShape::ForScale(double sf, int days) {
  StreamShape s;
  size_t orders = static_cast<size_t>(sf * kOrdersPerSf);
  size_t lines = static_cast<size_t>(sf * kLineitemPerSf);
  s.days = days;
  s.orders_per_day = static_cast<int>(std::max<size_t>(1, orders / days));
  s.part_card = static_cast<int>(std::max<size_t>(2, lines / 30));
  s.supp_card = static_cast<int>(lines / 60 + 4);
  s.cust_card = static_cast<int>(std::max<size_t>(1, orders / 10));
  s.clerk_card = static_cast<int>(std::max<size_t>(1, orders / 100));
  return s;
}

Schema LineitemSchema() {
  return Schema({{"l_orderkey", DataType::kInt64},
                 {"l_partkey", DataType::kInt64},
                 {"l_suppkey", DataType::kInt64},
                 {"l_linenumber", DataType::kInt64},
                 {"l_quantity", DataType::kInt64},
                 {"l_extendedprice", DataType::kDouble},
                 {"l_discount", DataType::kDouble},
                 {"l_tax", DataType::kDouble},
                 {"l_returnflag", DataType::kString},
                 {"l_linestatus", DataType::kString},
                 {"l_shipdate", DataType::kInt64},
                 {"l_commitdate", DataType::kInt64},
                 {"l_receiptdate", DataType::kInt64},
                 {"l_shipinstruct", DataType::kString},
                 {"l_shipmode", DataType::kString},
                 {"l_comment", DataType::kString}});
}

Schema OrdersSchema() {
  return Schema({{"o_orderkey", DataType::kInt64},
                 {"o_custkey", DataType::kInt64},
                 {"o_orderstatus", DataType::kString},
                 {"o_totalprice", DataType::kDouble},
                 {"o_orderdate", DataType::kInt64},
                 {"o_orderpriority", DataType::kString},
                 {"o_clerk", DataType::kString},
                 {"o_shippriority", DataType::kInt64},
                 {"o_comment", DataType::kString}});
}

Order MakeOrder(const StreamShape& shape, int64_t orderkey, int64_t day,
                fdevolve::util::Rng& rng) {
  Order o;
  o.orderkey = orderkey;
  int lines = 1 + static_cast<int>(rng.Below(7));
  for (int ln = 1; ln <= lines; ++ln) {
    int64_t part = static_cast<int64_t>(rng.Below(shape.part_card));
    o.lines.push_back(MakeLine(shape, orderkey, ln, part, day, rng));
  }
  uint64_t cust = rng.Below(shape.cust_card);
  uint64_t priority = rng.Below(5);
  uint64_t clerk = rng.Below(shape.clerk_card);
  // status = f(custkey, priority, clerk): o_custkey -> o_orderstatus is
  // violated, as in datagen::MakeTpch.
  o.order_row = {orderkey,
                 static_cast<int64_t>(cust),
                 "S" + std::to_string(HashMod({cust, priority, clerk}, 0x0f, 3)),
                 static_cast<double>(rng.Below(500000)) / 100.0,
                 kBaseDate + day,
                 "PRIO_" + std::to_string(priority),
                 "Clerk#" + std::to_string(clerk),
                 static_cast<int64_t>(rng.Below(2)),
                 "comment " + rng.Ident(6)};
  return o;
}

std::string RowLiteral(const std::vector<Value>& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) out += ", ";
    const Value& v = row[i];
    if (v.is_int()) {
      out += std::to_string(v.as_int());
    } else if (v.is_double()) {
      // Every generated double is a multiple of 0.01; "%.2f" parses back
      // to the same correctly rounded double.
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", v.as_double());
      out += buf;
    } else if (v.is_string()) {
      out += "'" + v.as_string() + "'";
    } else {
      out += "NULL";
    }
  }
  return out + ")";
}

InitialData MakeInitialData(const StreamShape& shape, uint64_t seed,
                            bool with_orders) {
  InitialData data{Relation("lineitem", LineitemSchema()),
                   Relation("orders", OrdersSchema()),
                   {}};
  fdevolve::util::Rng rng(fdevolve::util::Mix64(seed ^ 0x1217));
  data.by_day.resize(static_cast<size_t>(shape.days));
  int64_t key = 0;
  for (int day = 0; day < shape.days; ++day) {
    for (int i = 0; i < shape.orders_per_day; ++i) {
      Order o = MakeOrder(shape, key, day, rng);
      data.lineitem.AppendRows(o.lines);
      if (with_orders) data.orders.AppendRow(o.order_row);
      data.by_day[static_cast<size_t>(day)].push_back(
          {key, static_cast<int>(o.lines.size())});
      ++key;
    }
  }
  return data;
}

ChurnStream::ChurnStream(const StreamShape& shape, const DayIndex& initial,
                         int writer, uint64_t seed, int batch_orders,
                         int flip_every, bool plant_flips)
    : shape_(shape),
      rng_(fdevolve::util::Mix64(seed * 31 + static_cast<uint64_t>(writer) + 1)),
      batch_orders_(batch_orders),
      flip_every_(flip_every),
      plant_flips_(plant_flips) {
  for (int day = 0; day < shape.days; ++day) {
    if (day % 2 != writer) continue;
    days_.push_back({day, initial[static_cast<size_t>(day)]});
  }
  head_day_ = shape.days % 2 == writer ? shape.days : shape.days + 1;
  days_.push_back({head_day_, {}});
  next_key_ = static_cast<int64_t>(shape.orders()) + writer;
}

Stmt ChurnStream::Next() {
  ++emitted_;
  if (plant_flips_ && emitted_ % static_cast<uint64_t>(flip_every_) == 0) {
    Stmt s;
    s.table = "lineitem";
    if (!witness_live_) {
      // Twin: a line of an order on the newest own day that has orders;
      // retention only ever deletes the oldest day, so the twin outlives
      // the witness.
      const DayOrders* day = &days_.back();
      if (day->orders.empty()) day = &days_[days_.size() - 2];
      const auto& [key, lines] =
          day->orders[rng_.Below(day->orders.size())];
      witness_key_ = key;
      witness_line_ = 1 + static_cast<int64_t>(rng_.Below(lines));
      // A partkey no generated line carries, so it differs from the twin.
      witness_part_ = shape_.part_card + static_cast<int64_t>(emitted_);
      std::vector<std::vector<Value>> row = {MakeLine(
          shape_, witness_key_, witness_line_, witness_part_, day->day, rng_)};
      s.kind = Stmt::Kind::kFlipViolate;
      s.sql = InsertSql("lineitem", row);
      witness_live_ = true;
    } else {
      s.kind = Stmt::Kind::kFlipRecover;
      s.sql = "DELETE FROM lineitem WHERE l_orderkey = " +
              std::to_string(witness_key_) +
              " AND l_linenumber = " + std::to_string(witness_line_) +
              " AND l_partkey = " + std::to_string(witness_part_);
      witness_live_ = false;
    }
    return s;
  }
  if (pending_.empty()) FillBatch();
  Stmt s = std::move(pending_.front());
  pending_.pop_front();
  return s;
}

void ChurnStream::FillBatch() {
  DayOrders& head = days_.back();
  int room = shape_.orders_per_day - static_cast<int>(head.orders.size());
  int n = std::min(batch_orders_, room);
  std::vector<std::vector<Value>> order_rows;
  std::vector<std::vector<Value>> line_rows;
  for (int i = 0; i < n; ++i) {
    Order o = MakeOrder(shape_, next_key_, head_day_, rng_);
    next_key_ += 2;
    head.orders.push_back({o.orderkey, static_cast<int>(o.lines.size())});
    order_rows.push_back(std::move(o.order_row));
    for (auto& l : o.lines) line_rows.push_back(std::move(l));
  }
  pending_.push_back(
      {Stmt::Kind::kInsert, "orders", InsertSql("orders", order_rows)});
  pending_.push_back(
      {Stmt::Kind::kInsert, "lineitem", InsertSql("lineitem", line_rows)});

  // Supplier reassignment on a random live own order.
  const DayOrders& d = days_[rng_.Below(days_.size())];
  if (!d.orders.empty()) {
    int64_t key = d.orders[rng_.Below(d.orders.size())].first;
    pending_.push_back(
        {Stmt::Kind::kUpdate, "lineitem",
         "UPDATE lineitem SET l_suppkey = " +
             std::to_string(rng_.Below(shape_.supp_card)) +
             " WHERE l_orderkey = " + std::to_string(key)});
  }

  if (static_cast<int>(head.orders.size()) >= shape_.orders_per_day) {
    // Head day full: open the next own day and retire the oldest one, so
    // the live row count stays level while tombstones pile up.
    head_day_ += 2;
    days_.push_back({head_day_, {}});
    int64_t oldest = days_.front().day;
    days_.pop_front();
    std::string date = std::to_string(kBaseDate + oldest);
    pending_.push_back({Stmt::Kind::kDelete, "lineitem",
                        "DELETE FROM lineitem WHERE l_shipdate = " + date});
    pending_.push_back({Stmt::Kind::kDelete, "orders",
                        "DELETE FROM orders WHERE o_orderdate = " + date});
  }
}

AppendStream::AppendStream(const StreamShape& shape, int64_t first_key,
                           int64_t day, uint64_t seed, int batch_orders)
    : shape_(shape),
      rng_(fdevolve::util::Mix64(seed * 131 + 7)),
      next_key_(first_key),
      day_(day),
      batch_orders_(batch_orders) {}

std::string AppendStream::Next() {
  std::vector<std::vector<Value>> line_rows;
  for (int i = 0; i < batch_orders_; ++i) {
    Order o = MakeOrder(shape_, next_key_++, day_, rng_);
    for (auto& l : o.lines) line_rows.push_back(std::move(l));
  }
  return InsertSql("lineitem", line_rows);
}

}  // namespace fdbench
