#include "datagen/tpcxbb.h"

#include <algorithm>

namespace skyrise::datagen {

using data::DataType;
using data::Field;
using data::Schema;

Schema ClickstreamsSchema() {
  return Schema({
      {"wcs_click_date", DataType::kDate},
      {"wcs_user_sk", DataType::kInt64},
      {"wcs_item_sk", DataType::kInt64},
      {"wcs_sales_sk", DataType::kInt64},  ///< >0 => purchase, 0 => view.
  });
}

Schema ItemSchema() {
  return Schema({
      {"i_item_sk", DataType::kInt64},
      {"i_category_id", DataType::kInt64},
      {"i_current_price", DataType::kDouble},
  });
}

int64_t TotalUsers(const TpcxBbConfig& config) {
  return std::max<int64_t>(
      1, static_cast<int64_t>(config.users_per_sf * config.scale_factor));
}

int64_t TotalItems(const TpcxBbConfig& config) {
  return std::max<int64_t>(
      10, static_cast<int64_t>(config.items_per_sf * config.scale_factor));
}

data::Chunk GenerateClickstreamsPartition(const TpcxBbConfig& config,
                                          int partition,
                                          int partition_count) {
  SKYRISE_CHECK(partition >= 0 && partition < partition_count);
  const int64_t users = TotalUsers(config);
  const int64_t items = TotalItems(config);
  const int64_t first_user = users * partition / partition_count;
  const int64_t user_count =
      users * (partition + 1) / partition_count - first_user;

  data::Chunk chunk = data::Chunk::Empty(ClickstreamsSchema());
  auto& date = chunk.column(0).ints();
  auto& user = chunk.column(1).ints();
  auto& item = chunk.column(2).ints();
  auto& sale = chunk.column(3).ints();

  const int32_t max_day = 365 * 2;  // Two years of click history.
  // Item popularity is skewed (Zipf), as in web click data.
  const ZipfSampler item_popularity(items, 0.8);
  int64_t next_sale_sk = first_user * 1000 + 1;
  for (int64_t u = first_user; u < first_user + user_count; ++u) {
    Rng rng = Rng(config.seed).Fork(static_cast<uint64_t>(u) + 1);
    // Click count: geometric-ish around the configured mean.
    const int clicks = 1 + static_cast<int>(
                               rng.Exponential(config.clicks_per_user - 1));
    int32_t day = static_cast<int32_t>(rng.UniformInt(0, max_day / 2));
    for (int c = 0; c < clicks; ++c) {
      day += static_cast<int32_t>(rng.Exponential(2.0));
      if (day > max_day) day = max_day;
      date.push_back(day);
      user.push_back(u);
      item.push_back(1 + item_popularity.Sample(&rng));
      // ~8% of clicks are purchases.
      sale.push_back(rng.Bernoulli(0.08) ? next_sale_sk++ : 0);
    }
  }
  return chunk;
}

data::Chunk GenerateItemTable(const TpcxBbConfig& config) {
  const int64_t items = TotalItems(config);
  data::Chunk chunk = data::Chunk::Empty(ItemSchema());
  auto& sk = chunk.column(0).ints();
  auto& category = chunk.column(1).ints();
  auto& price = chunk.column(2).doubles();
  Rng rng(config.seed ^ 0xABCDEF);
  for (int64_t i = 1; i <= items; ++i) {
    sk.push_back(i);
    category.push_back(1 + rng.UniformInt(0, config.num_categories - 1));
    price.push_back(0.99 + rng.NextDouble() * 300.0);
  }
  return chunk;
}

}  // namespace skyrise::datagen
