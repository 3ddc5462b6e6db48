#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

/// \file json.h
/// Minimal JSON document model with parser and serializer. Used for physical
/// query plans (coordinator protocol) and experiment result files, matching
/// the paper's JSON-based interfaces.

namespace skyrise {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}            // NOLINT
  Json(double n) : type_(Type::kNumber), number_(n) {}      // NOLINT
  Json(int n) : Json(static_cast<double>(n)) {}             // NOLINT
  Json(int64_t n) : Json(static_cast<double>(n)) {}         // NOLINT
  Json(uint64_t n) : Json(static_cast<double>(n)) {}        // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {} // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(JsonArray a);   // NOLINT
  Json(JsonObject o);  // NOLINT

  static Json Array() { return Json(JsonArray{}); }
  static Json Object() { return Json(JsonObject{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt() const;
  const std::string& AsString() const;
  const JsonArray& AsArray() const;
  JsonArray& AsArray();
  const JsonObject& AsObject() const;
  JsonObject& AsObject();

  /// Object access. `Get` returns null JSON for a missing key.
  const Json& Get(const std::string& key) const;
  bool Has(const std::string& key) const;
  Json& operator[](const std::string& key);

  /// Typed object accessors with defaults for optional fields.
  int64_t GetInt(const std::string& key, int64_t def = 0) const;
  double GetDouble(const std::string& key, double def = 0.0) const;
  std::string GetString(const std::string& key,
                        const std::string& def = "") const;
  bool GetBool(const std::string& key, bool def = false) const;

  /// Array append.
  void Append(Json value);
  size_t size() const;

  /// Serializes; `indent` < 0 produces compact output.
  std::string Dump(int indent = -1) const;

  /// Parses a JSON document.
  [[nodiscard]] static Result<Json> Parse(const std::string& text);

  bool operator==(const Json& other) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

}  // namespace skyrise
