// Minimal JSON for the serving protocol (util only — no external deps).
//
// Supports the full JSON value model (null, bool, number, string, object,
// array) with compact single-line serialization — exactly what the
// newline-delimited protocol of pis_server needs. Objects keep their keys
// sorted, so serialization is deterministic: the same value always renders
// to the same bytes, which the smoke tests and goldens rely on. Numbers are
// doubles; integral values within int64 range render without a decimal
// point so graph ids round-trip as "17", not "17.0".
//
// A value is 16 bytes: a type tag plus one slot that holds a bool or a
// double inline, or owns the heap payload of a string, array or object. A
// protocol reply is mostly numbers in arrays, so its DOM costs about 16
// bytes per number. An object is a vector of (key, value) members sorted by
// key; keys compare as std::string does, so members render in the order a
// std::map would give.
#ifndef PIS_UTIL_JSON_H_
#define PIS_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace pis {

class JsonParser;

/// \brief A parsed/buildable JSON value.
class JsonValue {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kObject, kArray };
  /// An object's members, sorted by key, each key once.
  using Members = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  JsonValue(bool b)  // NOLINT(google-explicit-constructor)
      : type_(Type::kBool), slot_{.boolean = b} {}
  JsonValue(double d)  // NOLINT(google-explicit-constructor)
      : type_(Type::kNumber), slot_{.number = d} {}
  JsonValue(int i)  // NOLINT(google-explicit-constructor)
      : type_(Type::kNumber), slot_{.number = static_cast<double>(i)} {}
  JsonValue(int64_t i)  // NOLINT(google-explicit-constructor)
      : type_(Type::kNumber), slot_{.number = static_cast<double>(i)} {}
  JsonValue(uint64_t i)  // NOLINT(google-explicit-constructor)
      : type_(Type::kNumber), slot_{.number = static_cast<double>(i)} {}
  JsonValue(const char* s)  // NOLINT(google-explicit-constructor)
      : type_(Type::kString), slot_{.string = new std::string(s)} {}
  JsonValue(std::string s)  // NOLINT(google-explicit-constructor)
      : type_(Type::kString),
        slot_{.string = new std::string(std::move(s))} {}

  /// Copies are deep; a moved-from value is null.
  JsonValue(const JsonValue& other);
  JsonValue(JsonValue&& other) noexcept;
  JsonValue& operator=(const JsonValue& other);
  JsonValue& operator=(JsonValue&& other) noexcept;
  ~JsonValue() { Reset(); }

  static JsonValue Object();
  static JsonValue Array();

  /// Parses one JSON document; trailing non-whitespace is an error. A key
  /// repeated within one object keeps its last value.
  static Result<JsonValue> Parse(const std::string& text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  /// Typed reads; a value of another type reads as false, 0 or "".
  bool AsBool() const { return is_bool() && slot_.boolean; }
  double AsNumber() const { return is_number() ? slot_.number : 0; }
  const std::string& AsString() const;

  /// Object access. `Get*Or` helpers make protocol handlers terse: they
  /// return the fallback when the key is missing or of the wrong type.
  bool Has(const std::string& key) const;
  const JsonValue* Find(const std::string& key) const;
  double GetNumberOr(const std::string& key, double fallback) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;
  std::string GetStringOr(const std::string& key,
                          const std::string& fallback) const;
  /// Inserts or replaces `key`. A value that is not an object first
  /// becomes an empty one.
  JsonValue& Set(const std::string& key, JsonValue value);

  /// Array access. Push on a value that is not an array first makes it an
  /// empty one.
  void Push(JsonValue value);
  /// Members of an object, items of an array, else 0.
  size_t size() const;
  const JsonValue& at(size_t i) const { return (*slot_.items)[i]; }
  /// Empty unless this is an array (resp. an object).
  const std::vector<JsonValue>& items() const;
  const Members& members() const;

  /// Compact single-line rendering (no trailing newline).
  std::string Serialize() const;

 private:
  friend class JsonParser;

  /// The inline value or the owned payload, selected by type_. Moves copy
  /// the whole slot, whichever member is in use.
  union Slot {
    bool boolean;
    double number = 0;
    std::string* string;            // kString
    std::vector<JsonValue>* items;  // kArray
    Members* members;               // kObject
  };

  /// Frees the payload and becomes null.
  void Reset();
  /// Takes `other`'s type and slot, leaving it null; the caller has freed
  /// this value's payload.
  void TakeFrom(JsonValue* other);

  Type type_ = Type::kNull;
  Slot slot_{};
};

/// Escapes `s` for embedding in a JSON string literal (no quotes added).
std::string JsonEscape(const std::string& s);

}  // namespace pis

#endif  // PIS_UTIL_JSON_H_
