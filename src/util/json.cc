#include "util/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace pis {

static_assert(sizeof(JsonValue) <= 16, "a JsonValue is a tag plus one slot");

/// Recursive-descent parser over a raw byte range. Depth is bounded so a
/// hostile "[[[[..." line can't blow the stack of a server worker.
class JsonParser {
 public:
  JsonParser(const char* p, const char* end) : p_(p), end_(end) {}

  Result<JsonValue> ParseDocument() {
    PIS_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipSpace();
    if (p_ != end_) return Err("trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Err(const std::string& what) const {
    return Status::ParseError("JSON: " + what + " at offset " +
                              std::to_string(offset_));
  }

  void SkipSpace() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      Advance();
    }
  }

  void Advance() {
    ++p_;
    ++offset_;
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      Advance();
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    const char* q = p_;
    size_t n = 0;
    while (word[n] != '\0') {
      if (q == end_ || *q != word[n]) return false;
      ++q;
      ++n;
    }
    p_ = q;
    offset_ += n;
    return true;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipSpace();
    if (p_ == end_) return Err("unexpected end of input");
    switch (*p_) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        PIS_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue(std::move(s));
      }
      case 't':
        if (ConsumeWord("true")) return JsonValue(true);
        return Err("bad literal");
      case 'f':
        if (ConsumeWord("false")) return JsonValue(false);
        return Err("bad literal");
      case 'n':
        if (ConsumeWord("null")) return JsonValue();
        return Err("bad literal");
      default:
        return ParseNumber();
    }
  }

  // Members are appended as read, then sorted and deduplicated once: one
  // sorted insertion per key would make a long line of distinct keys
  // quadratic.
  Result<JsonValue> ParseObject(int depth) {
    Advance();  // '{'
    JsonValue obj = JsonValue::Object();
    JsonValue::Members& members = *obj.slot_.members;
    SkipSpace();
    if (Consume('}')) return obj;
    while (true) {
      SkipSpace();
      if (p_ == end_ || *p_ != '"') return Err("expected object key");
      PIS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Err("expected ':' after object key");
      PIS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) {
        SortMembers(&members);
        return obj;
      }
      return Err("expected ',' or '}' in object");
    }
  }

  // Stable sort by key, then keep the last member of each run of equal
  // keys: a repeated key keeps its last value.
  static void SortMembers(JsonValue::Members* members) {
    std::stable_sort(
        members->begin(), members->end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    size_t out = 0;
    for (size_t i = 0; i < members->size(); ++i) {
      if (i + 1 < members->size() &&
          (*members)[i + 1].first == (*members)[i].first) {
        continue;
      }
      if (out != i) (*members)[out] = std::move((*members)[i]);
      ++out;
    }
    members->resize(out);
  }

  Result<JsonValue> ParseArray(int depth) {
    Advance();  // '['
    JsonValue arr = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) return arr;
    while (true) {
      PIS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      arr.Push(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Err("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    Advance();  // '"'
    std::string out;
    while (true) {
      if (p_ == end_) return Err("unterminated string");
      unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        Advance();
        return out;
      }
      if (c == '\\') {
        Advance();
        if (p_ == end_) return Err("unterminated escape");
        char esc = *p_;
        Advance();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            PIS_ASSIGN_OR_RETURN(unsigned code, ParseHex4());
            // BMP code points only (no surrogate-pair recombination):
            // enough for the protocol, whose strings are ASCII graph
            // records and status text. Encode as UTF-8.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Err("bad escape");
        }
        continue;
      }
      if (c < 0x20) return Err("raw control character in string");
      out.push_back(static_cast<char>(c));
      Advance();
    }
  }

  Result<unsigned> ParseHex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (p_ == end_) return Err("truncated \\u escape");
      char c = *p_;
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Err("bad \\u escape");
      }
      Advance();
    }
    return code;
  }

  // RFC 8259 number grammar, enforced before strtod sees the token:
  //   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  // strtod is looser (".5", "1.", "0x1p3", "inf"), so the grammar check here
  // is what keeps malformed client frames from parsing differently than any
  // other JSON implementation would.
  Result<JsonValue> ParseNumber() {
    const char* start = p_;
    Consume('-');
    if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) {
      return p_ == start ? Err("expected a value")
                         : Err("bad number: digit expected");
    }
    if (*p_ == '0') {
      Advance();
      if (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) {
        return Err("bad number: leading zero");
      }
    } else {
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) {
        Advance();
      }
    }
    if (Consume('.')) {
      if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) {
        return Err("bad number: digit expected after '.'");
      }
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) {
        Advance();
      }
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      Advance();
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) Advance();
      if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) {
        return Err("bad number: digit expected in exponent");
      }
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) {
        Advance();
      }
    }
    std::string token(start, p_);
    char* parsed_end = nullptr;
    double value = std::strtod(token.c_str(), &parsed_end);
    if (parsed_end != token.c_str() + token.size() || !std::isfinite(value)) {
      return Err("bad number '" + token + "'");
    }
    return JsonValue(value);
  }

  const char* p_;
  const char* end_;
  size_t offset_ = 0;
};

namespace {

void SerializeTo(const JsonValue& v, std::string* out) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      out->append("null");
      break;
    case JsonValue::Type::kBool:
      out->append(v.AsBool() ? "true" : "false");
      break;
    case JsonValue::Type::kNumber: {
      double d = v.AsNumber();
      // Integral values in int64 range print as integers so ids and
      // counters round-trip textually.
      if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 9.2e18) {
        out->append(std::to_string(static_cast<int64_t>(d)));
      } else if (!std::isfinite(d)) {
        // JSON has no NaN/Infinity; null is the only faithful rendering.
        out->append("null");
      } else {
        // Shortest form that parses back to exactly this double, so
        // sigma/distance values survive the wire bit-for-bit.
        char buf[32];
        std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), d);
        out->append(buf, r.ptr);
      }
      break;
    }
    case JsonValue::Type::kString:
      out->push_back('"');
      out->append(JsonEscape(v.AsString()));
      out->push_back('"');
      break;
    case JsonValue::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : v.members()) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        out->append(JsonEscape(key));
        out->append("\":");
        SerializeTo(member, out);
      }
      out->push_back('}');
      break;
    }
    case JsonValue::Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out->push_back(',');
        SerializeTo(v.at(i), out);
      }
      out->push_back(']');
      break;
    }
  }
}

}  // namespace

JsonValue::JsonValue(const JsonValue& other) : type_(other.type_) {
  switch (type_) {
    case Type::kString:
      slot_.string = new std::string(*other.slot_.string);
      break;
    case Type::kArray:
      slot_.items = new std::vector<JsonValue>(*other.slot_.items);
      break;
    case Type::kObject:
      slot_.members = new Members(*other.slot_.members);
      break;
    default:
      slot_ = other.slot_;
      break;
  }
}

JsonValue::JsonValue(JsonValue&& other) noexcept { TakeFrom(&other); }

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this != &other) *this = JsonValue(other);
  return *this;
}

JsonValue& JsonValue::operator=(JsonValue&& other) noexcept {
  if (this != &other) {
    // `other` may live inside this value's payload: detach it first.
    JsonValue taken;
    taken.TakeFrom(&other);
    Reset();
    TakeFrom(&taken);
  }
  return *this;
}

void JsonValue::TakeFrom(JsonValue* other) {
  type_ = other->type_;
  slot_ = other->slot_;
  other->type_ = Type::kNull;
  other->slot_ = Slot();
}

void JsonValue::Reset() {
  switch (type_) {
    case Type::kString:
      delete slot_.string;
      break;
    case Type::kArray:
      delete slot_.items;
      break;
    case Type::kObject:
      delete slot_.members;
      break;
    default:
      break;
  }
  type_ = Type::kNull;
  slot_ = Slot();
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  v.slot_.members = new Members();
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  v.slot_.items = new std::vector<JsonValue>();
  return v;
}

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  JsonParser parser(text.data(), text.data() + text.size());
  return parser.ParseDocument();
}

const std::string& JsonValue::AsString() const {
  static const std::string kEmpty;
  return is_string() ? *slot_.string : kEmpty;
}

namespace {

bool KeyLess(const std::pair<std::string, JsonValue>& member,
             const std::string& key) {
  return member.first < key;
}

}  // namespace

bool JsonValue::Has(const std::string& key) const {
  return Find(key) != nullptr;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const Members& members = *slot_.members;
  auto it = std::lower_bound(members.begin(), members.end(), key, KeyLess);
  return it == members.end() || it->first != key ? nullptr : &it->second;
}

double JsonValue::GetNumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

bool JsonValue::GetBoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->AsBool() : fallback;
}

std::string JsonValue::GetStringOr(const std::string& key,
                                   const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : fallback;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue value) {
  if (type_ != Type::kObject) {
    // Build the object first: `key` may point into this value's string.
    JsonValue object = Object();
    object.slot_.members->emplace_back(key, std::move(value));
    return *this = std::move(object);
  }
  Members& members = *slot_.members;
  auto it = std::lower_bound(members.begin(), members.end(), key, KeyLess);
  if (it != members.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    members.emplace(it, key, std::move(value));
  }
  return *this;
}

void JsonValue::Push(JsonValue value) {
  if (type_ != Type::kArray) *this = Array();
  slot_.items->push_back(std::move(value));
}

size_t JsonValue::size() const {
  switch (type_) {
    case Type::kObject:
      return slot_.members->size();
    case Type::kArray:
      return slot_.items->size();
    default:
      return 0;
  }
}

const std::vector<JsonValue>& JsonValue::items() const {
  static const std::vector<JsonValue> kNone;
  return is_array() ? *slot_.items : kNone;
}

const JsonValue::Members& JsonValue::members() const {
  static const Members kNone;
  return is_object() ? *slot_.members : kNone;
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(*this, &out);
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

}  // namespace pis
