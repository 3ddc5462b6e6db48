#include "format/cof.h"

#include <algorithm>
#include <cstring>

#include "format/encoding.h"

namespace skyrise::format {

namespace {
constexpr char kMagic[4] = {'C', 'O', 'F', '1'};

std::optional<double> ColumnMin(const data::Column& col) {
  using data::DataType;
  if (col.size() == 0) return std::nullopt;
  if (col.type() == DataType::kDouble) {
    return *std::min_element(col.doubles().begin(), col.doubles().end());
  }
  if (col.type() == DataType::kString) return std::nullopt;
  return static_cast<double>(
      *std::min_element(col.ints().begin(), col.ints().end()));
}

std::optional<double> ColumnMax(const data::Column& col) {
  using data::DataType;
  if (col.size() == 0) return std::nullopt;
  if (col.type() == DataType::kDouble) {
    return *std::max_element(col.doubles().begin(), col.doubles().end());
  }
  if (col.type() == DataType::kString) return std::nullopt;
  return static_cast<double>(
      *std::max_element(col.ints().begin(), col.ints().end()));
}

data::DataType TypeFromName(const std::string& name) {
  if (name == "double") return data::DataType::kDouble;
  if (name == "string") return data::DataType::kString;
  if (name == "date") return data::DataType::kDate;
  return data::DataType::kInt64;
}

}  // namespace

int64_t FileMeta::TotalRows() const {
  int64_t rows = 0;
  for (const auto& rg : row_groups) rows += rg.rows;
  return rows;
}

Json FileMeta::ToJson() const {
  Json out = Json::Object();
  Json schema_json = Json::Array();
  for (const auto& field : schema.fields()) {
    Json f = Json::Object();
    f["name"] = field.name;
    f["type"] = data::DataTypeName(field.type);
    schema_json.Append(std::move(f));
  }
  out["schema"] = std::move(schema_json);
  out["data_size"] = data_size;
  out["synthetic"] = synthetic;
  Json groups = Json::Array();
  for (const auto& rg : row_groups) {
    Json g = Json::Object();
    g["rows"] = rg.rows;
    Json cols = Json::Array();
    for (const auto& c : rg.columns) {
      Json cj = Json::Object();
      cj["offset"] = c.offset;
      cj["size"] = c.size;
      if (c.min.has_value()) cj["min"] = *c.min;
      if (c.max.has_value()) cj["max"] = *c.max;
      cols.Append(std::move(cj));
    }
    g["columns"] = std::move(cols);
    groups.Append(std::move(g));
  }
  out["row_groups"] = std::move(groups);
  return out;
}

Result<FileMeta> FileMeta::FromJson(const Json& json) {
  if (!json.is_object()) return Status::IoError("footer is not an object");
  FileMeta meta;
  std::vector<data::Field> fields;
  for (const auto& f : json.Get("schema").AsArray()) {
    fields.push_back(
        data::Field{f.GetString("name"), TypeFromName(f.GetString("type"))});
  }
  meta.schema = data::Schema(std::move(fields));
  meta.data_size = json.GetInt("data_size");
  meta.synthetic = json.GetBool("synthetic");
  for (const auto& g : json.Get("row_groups").AsArray()) {
    RowGroupMeta rg;
    rg.rows = g.GetInt("rows");
    for (const auto& c : g.Get("columns").AsArray()) {
      ColumnChunkMeta cm;
      cm.offset = c.GetInt("offset");
      cm.size = c.GetInt("size");
      if (c.Has("min")) cm.min = c.GetDouble("min");
      if (c.Has("max")) cm.max = c.GetDouble("max");
      rg.columns.push_back(cm);
    }
    if (rg.columns.size() != meta.schema.size()) {
      return Status::IoError("row group column count mismatch");
    }
    meta.row_groups.push_back(std::move(rg));
  }
  return meta;
}

CofWriter::CofWriter(data::Schema schema, int64_t row_group_rows)
    : schema_(std::move(schema)),
      row_group_rows_(row_group_rows),
      buffer_(data::Chunk::Empty(schema_)) {
  SKYRISE_CHECK(row_group_rows_ > 0);
}

Status CofWriter::Append(const data::Chunk& chunk) {
  if (!(chunk.schema() == schema_)) {
    return Status::InvalidArgument("chunk schema mismatch");
  }
  if (chunk.is_synthetic()) {
    return Status::InvalidArgument("cannot write synthetic chunk");
  }
  buffer_.Append(chunk);
  while (buffer_.rows() >= row_group_rows_) FlushRowGroup();
  return Status::OK();
}

void CofWriter::FlushRowGroup() {
  const int64_t take = std::min<int64_t>(buffer_.rows(), row_group_rows_);
  if (take == 0) return;
  // Split buffer into [0, take) and the remainder.
  data::Chunk group = data::Chunk::Empty(schema_);
  data::Chunk rest = data::Chunk::Empty(schema_);
  std::vector<uint32_t> head, tail;
  for (int64_t i = 0; i < buffer_.rows(); ++i) {
    (i < take ? head : tail).push_back(static_cast<uint32_t>(i));
  }
  std::vector<data::Column> head_cols, tail_cols;
  for (size_t c = 0; c < buffer_.num_columns(); ++c) {
    head_cols.push_back(buffer_.column(c).Filter(head));
    tail_cols.push_back(buffer_.column(c).Filter(tail));
  }
  group = data::Chunk(schema_, std::move(head_cols));
  rest = data::Chunk(schema_, std::move(tail_cols));

  RowGroupMeta rg;
  rg.rows = group.rows();
  for (size_t c = 0; c < group.num_columns(); ++c) {
    ColumnChunkMeta cm;
    cm.offset = static_cast<int64_t>(data_.size());
    cm.min = ColumnMin(group.column(c));
    cm.max = ColumnMax(group.column(c));
    std::string encoded;
    EncodeColumn(group.column(c), &encoded);
    cm.size = static_cast<int64_t>(encoded.size());
    data_ += encoded;
    rg.columns.push_back(cm);
  }
  row_groups_.push_back(std::move(rg));
  buffer_ = std::move(rest);
}

std::string CofWriter::Finish() {
  while (buffer_.rows() > 0) FlushRowGroup();
  FileMeta meta;
  meta.schema = schema_;
  meta.row_groups = std::move(row_groups_);
  meta.data_size = static_cast<int64_t>(data_.size());
  const std::string footer = meta.ToJson().Dump();
  std::string out = std::move(data_);
  out += footer;
  const uint32_t footer_size = static_cast<uint32_t>(footer.size());
  char trailer[8];
  std::memcpy(trailer, &footer_size, 4);
  std::memcpy(trailer + 4, kMagic, 4);
  out.append(trailer, 8);
  return out;
}

std::string WriteCofFile(const data::Schema& schema,
                         const std::vector<data::Chunk>& chunks,
                         int64_t row_group_rows) {
  CofWriter writer(schema, row_group_rows);
  for (const auto& chunk : chunks) SKYRISE_CHECK_OK(writer.Append(chunk));
  return writer.Finish();
}

FileMeta BuildSyntheticFileMeta(
    const data::Schema& schema, int64_t rows, int64_t target_bytes,
    int64_t row_group_rows,
    const std::vector<SyntheticColumnStats>& stats) {
  SKYRISE_CHECK(rows >= 0 && row_group_rows > 0);
  FileMeta meta;
  meta.schema = schema;
  meta.synthetic = true;
  meta.data_size = target_bytes;
  const int64_t groups = std::max<int64_t>(1, (rows + row_group_rows - 1) /
                                                  row_group_rows);
  const double bytes_per_row =
      rows > 0 ? static_cast<double>(target_bytes) / rows : 0;
  int64_t offset = 0;
  int64_t remaining = rows;
  for (int64_t g = 0; g < groups; ++g) {
    RowGroupMeta rg;
    rg.rows = std::min(remaining, row_group_rows);
    remaining -= rg.rows;
    const int64_t group_bytes =
        static_cast<int64_t>(bytes_per_row * rg.rows);
    const int64_t per_column =
        std::max<int64_t>(1, group_bytes / static_cast<int64_t>(schema.size()));
    for (size_t c = 0; c < schema.size(); ++c) {
      ColumnChunkMeta cm;
      cm.offset = offset;
      cm.size = per_column;
      offset += per_column;
      // Spread each column's global [min, max] range over the row groups so
      // range predicates prune a realistic subset (clustered layout).
      for (const auto& s : stats) {
        if (s.column == schema.field(c).name) {
          const double span = (s.max - s.min) / static_cast<double>(groups);
          cm.min = s.min + span * static_cast<double>(g);
          cm.max = s.min + span * static_cast<double>(g + 1);
        }
      }
      rg.columns.push_back(cm);
    }
    meta.row_groups.push_back(std::move(rg));
  }
  meta.data_size = offset;
  return meta;
}

Result<FileMeta> ParseFooter(const std::string& tail, int64_t tail_offset,
                             int64_t file_size) {
  if (tail.size() < kCofTrailerSize) return Status::IoError("file too small");
  const int64_t tail_end = tail_offset + static_cast<int64_t>(tail.size());
  if (tail_end != file_size) {
    return Status::InvalidArgument("tail does not reach end of file");
  }
  if (std::memcmp(tail.data() + tail.size() - 4, kMagic, 4) != 0) {
    return Status::IoError("bad magic: not a COF file");
  }
  uint32_t footer_size;
  std::memcpy(&footer_size, tail.data() + tail.size() - 8, 4);
  if (footer_size + static_cast<size_t>(kCofTrailerSize) > tail.size()) {
    return Status::IoError("footer larger than fetched tail");
  }
  const std::string footer =
      tail.substr(tail.size() - kCofTrailerSize - footer_size, footer_size);
  Json json;
  SKYRISE_ASSIGN_OR_RETURN(json, Json::Parse(footer));
  return FileMeta::FromJson(json);
}

Result<std::vector<ColumnRange>> RowGroupColumnRanges(
    const FileMeta& meta, size_t row_group,
    const std::vector<std::string>& projection) {
  if (row_group >= meta.row_groups.size()) {
    return Status::OutOfRange("row group index");
  }
  const RowGroupMeta& rg = meta.row_groups[row_group];
  std::vector<ColumnRange> ranges;
  ranges.reserve(projection.size());
  for (const auto& name : projection) {
    const int idx = meta.schema.FieldIndex(name);
    if (idx < 0) return Status::NotFound("no column: " + name);
    const ColumnChunkMeta& cm = rg.columns[static_cast<size_t>(idx)];
    ranges.push_back(ColumnRange{cm.offset, cm.size});
  }
  return ranges;
}

Status DecodeRowGroupInto(const FileMeta& meta, size_t row_group,
                          const std::vector<std::string>& projection,
                          const std::vector<std::string>& column_bytes,
                          data::Chunk* out) {
  if (row_group >= meta.row_groups.size()) {
    return Status::OutOfRange("row group index");
  }
  if (projection.size() != column_bytes.size()) {
    return Status::InvalidArgument("projection/bytes size mismatch");
  }
  const RowGroupMeta& rg = meta.row_groups[row_group];
  data::Schema projected;
  SKYRISE_ASSIGN_OR_RETURN(projected, meta.schema.Select(projection));
  if (meta.synthetic) {
    *out = data::Chunk::Synthetic(std::move(projected), rg.rows);
    return Status::OK();
  }
  out->PrepareFor(projected);
  for (size_t i = 0; i < projection.size(); ++i) {
    SKYRISE_RETURN_IF_ERROR(DecodeColumnInto(
        column_bytes[i].data(), column_bytes[i].size(),
        projected.field(i).type, rg.rows, &out->column(i)));
  }
  return Status::OK();
}

Result<data::Chunk> DecodeRowGroup(
    const FileMeta& meta, size_t row_group,
    const std::vector<std::string>& projection,
    const std::vector<std::string>& column_bytes) {
  data::Chunk chunk;
  SKYRISE_RETURN_IF_ERROR(
      DecodeRowGroupInto(meta, row_group, projection, column_bytes, &chunk));
  return chunk;
}

}  // namespace skyrise::format
