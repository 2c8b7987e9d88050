#include "src/service/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"

namespace mtv
{

namespace
{

const Json nullJson;

const char *
typeName(Json::Type type)
{
    switch (type) {
      case Json::Type::Null: return "null";
      case Json::Type::Bool: return "bool";
      case Json::Type::Number: return "number";
      case Json::Type::String: return "string";
      case Json::Type::Array: return "array";
      case Json::Type::Object: return "object";
    }
    return "?";
}

/** Recursive-descent parser (depth-limited against hostile input). */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parseDocument(Json *out)
    {
        skipSpace();
        if (!parseValue(out, 0))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing bytes after JSON value");
        return true;
    }

  private:
    static constexpr int maxDepth = 32;

    bool
    fail(const std::string &what)
    {
        if (error_) {
            *error_ = format("JSON parse error at byte %zu: %s", pos_,
                             what.c_str());
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    literal(const char *word, Json value, Json *out)
    {
        const size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return fail(format("expected '%s'", word));
        pos_ += n;
        *out = std::move(value);
        return true;
    }

    bool
    parseValue(Json *out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case 'n': return literal("null", Json(), out);
          case 't': return literal("true", Json(true), out);
          case 'f': return literal("false", Json(false), out);
          case '"': return parseString(out);
          case '[': return parseArray(out, depth);
          case '{': return parseObject(out, depth);
          default: return parseNumber(out);
        }
    }

    bool
    parseString(Json *out)
    {
        std::string s;
        if (!parseRawString(&s))
            return false;
        *out = Json(std::move(s));
        return true;
    }

    bool
    parseRawString(std::string *out)
    {
        ++pos_;  // opening quote
        std::string s;
        for (;;) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                break;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                s.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': s.push_back('"'); break;
              case '\\': s.push_back('\\'); break;
              case '/': s.push_back('/'); break;
              case 'b': s.push_back('\b'); break;
              case 'f': s.push_back('\f'); break;
              case 'n': s.push_back('\n'); break;
              case 'r': s.push_back('\r'); break;
              case 't': s.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        code |= h - 'A' + 10;
                    else
                        return fail("bad \\u escape digit");
                }
                // Encode the code point as UTF-8 (surrogate pairs are
                // passed through individually; the protocol never
                // emits them).
                if (code < 0x80) {
                    s.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    s.push_back(
                        static_cast<char>(0xc0 | (code >> 6)));
                    s.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    s.push_back(
                        static_cast<char>(0xe0 | (code >> 12)));
                    s.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    s.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
              }
              default: return fail("unknown escape character");
            }
        }
        *out = std::move(s);
        return true;
    }

    bool
    parseNumber(Json *out)
    {
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return fail("expected a value");
        // Plain integers (ids, counts, a sweep's latency list) skip
        // the token copy and strtod: up to 15 digits are exact in a
        // double, and the value is the one strtod would give.
        const bool negative = text_[start] == '-';
        const size_t digits = pos_ - start - (negative ? 1 : 0);
        if (digits > 0 && digits <= 15) {
            uint64_t magnitude = 0;
            size_t i = start + (negative ? 1 : 0);
            for (; i < pos_ && text_[i] >= '0' && text_[i] <= '9'; ++i)
                magnitude = magnitude * 10 + (text_[i] - '0');
            if (i == pos_) {
                const double v = static_cast<double>(magnitude);
                *out = Json(negative ? -v : v);
                return true;
            }
        }
        char *end = nullptr;
        const std::string token = text_.substr(start, pos_ - start);
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail(format("bad number '%s'", token.c_str()));
        *out = Json(v);
        return true;
    }

    bool
    parseArray(Json *out, int depth)
    {
        ++pos_;  // '['
        Json arr = Json::array();
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            *out = std::move(arr);
            return true;
        }
        for (;;) {
            Json element;
            skipSpace();
            if (!parseValue(&element, depth + 1))
                return false;
            arr.push(std::move(element));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            const char c = text_[pos_++];
            if (c == ']')
                break;
            if (c != ',')
                return fail("expected ',' or ']' in array");
        }
        *out = std::move(arr);
        return true;
    }

    bool
    parseObject(Json *out, int depth)
    {
        ++pos_;  // '{'
        Json obj = Json::object();
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            *out = std::move(obj);
            return true;
        }
        for (;;) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected a member name");
            std::string key;
            if (!parseRawString(&key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return fail("expected ':' after member name");
            Json value;
            skipSpace();
            if (!parseValue(&value, depth + 1))
                return false;
            obj.set(key, std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            const char c = text_[pos_++];
            if (c == '}')
                break;
            if (c != ',')
                return fail("expected ',' or '}' in object");
        }
        *out = std::move(obj);
        return true;
    }

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
};

void
dumpString(const std::string &s, std::string &out)
{
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out.push_back(c);
        }
    }
    out.push_back('"');
}

} // namespace

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        fatal("JSON value is %s, expected bool", typeName(type_));
    return bool_;
}

double
Json::asNumber() const
{
    if (type_ != Type::Number)
        fatal("JSON value is %s, expected number", typeName(type_));
    return number_;
}

uint64_t
Json::asU64() const
{
    const double v = asNumber();
    if (v < 0 || v != std::floor(v) || v > 9.007199254740992e15)
        fatal("JSON number %g is not an exact non-negative integer", v);
    return static_cast<uint64_t>(v);
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        fatal("JSON value is %s, expected string", typeName(type_));
    return string_;
}

const std::vector<Json> &
Json::asArray() const
{
    if (type_ != Type::Array)
        fatal("JSON value is %s, expected array", typeName(type_));
    return array_;
}

const std::vector<std::pair<std::string, Json>> &
Json::asMembers() const
{
    if (type_ != Type::Object)
        fatal("JSON value is %s, expected object", typeName(type_));
    return members_;
}

const Json &
Json::get(const std::string &key) const
{
    if (type_ != Type::Object)
        fatal("JSON value is %s, expected object", typeName(type_));
    for (const auto &member : members_) {
        if (member.first == key)
            return member.second;
    }
    return nullJson;
}

std::string
Json::getString(const std::string &key,
                const std::string &fallback) const
{
    const Json &v = get(key);
    return v.isNull() ? fallback : v.asString();
}

double
Json::getNumber(const std::string &key, double fallback) const
{
    const Json &v = get(key);
    return v.isNull() ? fallback : v.asNumber();
}

bool
Json::getBool(const std::string &key, bool fallback) const
{
    const Json &v = get(key);
    return v.isNull() ? fallback : v.asBool();
}

bool
Json::has(const std::string &key) const
{
    return !get(key).isNull();
}

Json &
Json::push(Json value)
{
    if (type_ != Type::Array)
        panic("push() on JSON %s", typeName(type_));
    array_.push_back(std::move(value));
    return *this;
}

Json &
Json::set(const std::string &key, Json value)
{
    if (type_ != Type::Object)
        panic("set() on JSON %s", typeName(type_));
    for (auto &member : members_) {
        if (member.first == key) {
            member.second = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

void
Json::dumpTo(std::string &out) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        return;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        return;
      case Type::Number: {
        // std::to_chars prints exactly what %lld and %.17g print,
        // without vsnprintf's two passes and a string per number.
        char buf[40];
        std::to_chars_result r;
        if (number_ == std::floor(number_) &&
            std::fabs(number_) < 9.007199254740992e15) {
            r = std::to_chars(buf, buf + sizeof(buf),
                              static_cast<long long>(number_));
        } else {
            r = std::to_chars(buf, buf + sizeof(buf), number_,
                              std::chars_format::general, 17);
        }
        out.append(buf, static_cast<size_t>(r.ptr - buf));
        return;
      }
      case Type::String:
        dumpString(string_, out);
        return;
      case Type::Array: {
        out.push_back('[');
        for (size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out.push_back(',');
            array_[i].dumpTo(out);
        }
        out.push_back(']');
        return;
      }
      case Type::Object: {
        out.push_back('{');
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out.push_back(',');
            dumpString(members_[i].first, out);
            out.push_back(':');
            members_[i].second.dumpTo(out);
        }
        out.push_back('}');
        return;
      }
    }
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

bool
Json::parse(const std::string &text, Json *out, std::string *error)
{
    Parser parser(text, error);
    return parser.parseDocument(out);
}

} // namespace mtv
