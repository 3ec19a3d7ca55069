/**
 * @file
 * The project's one JSON writer and its matching reader. Every JSON
 * document the library, the tools and the bench harness emit goes
 * through JsonWriter, so layout and escaping are decided here only.
 *
 *  - Layout. A container is Block (one element per line, two spaces
 *    of indent per level) or Inline (one line, ", " between
 *    elements); a container opened inside an Inline one is Inline
 *    too, so JSONL records stay on their line. Empty containers are
 *    "{}" and "[]". Keys appear in emission order, so documents are
 *    deterministic and diff cleanly.
 *  - Escaping. '"' and '\\' are backslash-escaped, newline, tab and
 *    carriage return use their short escapes, and every other byte
 *    below 0x20 becomes \u00XX. Other bytes pass through unchanged,
 *    so any input string yields a valid document.
 *  - Numbers. Integers print exactly, finite doubles as %.17g
 *    (enough digits to round-trip) and NaN or infinity as null, and
 *    rawNumber() writes a number token verbatim.
 *
 * JsonValue/parseJson is the reader: a recursive-descent parser into
 * an ordered value tree. Numbers keep their source spelling, because
 * BENCH_*.json carries exact 64-bit counters that a round trip
 * through double would corrupt above 2^53; object members keep their
 * order. So parse -> dump -> parse is byte-stable on dump's output
 * (the uprstat round-trip check). Number tokens must follow the RFC
 * 8259 grammar; \u escapes, surrogate pairs included, decode to UTF-8.
 * The reader has no duplicate-key policy.
 *
 * Header-only and free of other upr headers: obs/trace_ring.hh (which
 * common/fault.hh includes) and uprstat, which links nothing, use it.
 */

#ifndef UPR_COMMON_JSON_HH
#define UPR_COMMON_JSON_HH

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace upr
{

/** Streaming JSON writer. Misnesting aborts; it never emits bad JSON. */
class JsonWriter
{
  public:
    /** How a container places its elements. */
    enum Layout
    {
        Block,  //!< one element per line, indented
        Inline, //!< every element on the container's line
    };

    JsonWriter() { out_.reserve(4096); }

    JsonWriter &
    beginObject(Layout layout = Block)
    {
        return open('{', '}', layout);
    }

    JsonWriter &
    beginArray(Layout layout = Block)
    {
        return open('[', ']', layout);
    }

    JsonWriter &
    end()
    {
        check(!stack_.empty() && !pendingValue_,
              "end() with nothing open or a key without a value");
        const Frame f = stack_.back();
        stack_.pop_back();
        if (!f.first && !f.inline_)
            newlineIndent(stack_.size());
        out_ += f.closer;
        return *this;
    }

    /** Key inside the innermost object; a value call must follow. */
    JsonWriter &
    key(const std::string &k)
    {
        check(!stack_.empty() && stack_.back().closer == '}' &&
                  !pendingValue_,
              "key() outside an object");
        separate();
        appendString(k);
        out_ += ": ";
        pendingValue_ = true;
        return *this;
    }

    JsonWriter &
    value(const std::string &v)
    {
        beforeValue();
        appendString(v);
        return *this;
    }

    JsonWriter &
    value(const char *v)
    {
        return value(std::string(v));
    }

    JsonWriter &
    value(std::uint64_t v)
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
        return rawNumber(buf);
    }

    JsonWriter &
    value(std::int64_t v)
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%" PRId64, v);
        return rawNumber(buf);
    }

    JsonWriter &
    value(int v)
    {
        return value(static_cast<std::int64_t>(v));
    }

    /** NaN and infinities have no JSON spelling: they write null. */
    JsonWriter &
    value(double v)
    {
        if (!std::isfinite(v))
            return null();
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return rawNumber(buf);
    }

    JsonWriter &
    value(bool v)
    {
        beforeValue();
        out_ += v ? "true" : "false";
        return *this;
    }

    JsonWriter &
    null()
    {
        beforeValue();
        out_ += "null";
        return *this;
    }

    /** A number token written verbatim, e.g. a parsed source spelling. */
    JsonWriter &
    rawNumber(const std::string &token)
    {
        beforeValue();
        out_ += token;
        return *this;
    }

    /** Convenience: key + value in one call. */
    template <typename T>
    JsonWriter &
    kv(const std::string &k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** The finished document (all containers must be closed). */
    const std::string &
    str() const
    {
        check(stack_.empty() && !pendingValue_, "unclosed container");
        return out_;
    }

    /** Write the document and a newline to @p path. @return false on
     * I/O error. */
    bool
    writeFile(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::string &s = str();
        const bool ok =
            std::fwrite(s.data(), 1, s.size(), f) == s.size() &&
            std::fputc('\n', f) != EOF;
        return std::fclose(f) == 0 && ok;
    }

  private:
    struct Frame
    {
        char closer;
        bool first;
        bool inline_;
    };

    static void
    check(bool ok, const char *what)
    {
        if (!ok) {
            std::fprintf(stderr, "json: %s\n", what);
            std::abort();
        }
    }

    JsonWriter &
    open(char opener, char closer, Layout layout)
    {
        beforeValue();
        out_ += opener;
        const bool in = layout == Inline ||
                        (!stack_.empty() && stack_.back().inline_);
        stack_.push_back(Frame{closer, true, in});
        return *this;
    }

    /** Comma and line break before an element of the innermost
     * container. */
    void
    separate()
    {
        Frame &f = stack_.back();
        if (!f.first)
            out_ += f.inline_ ? ", " : ",";
        f.first = false;
        if (!f.inline_)
            newlineIndent(stack_.size());
    }

    void
    beforeValue()
    {
        if (pendingValue_) {
            // Value directly after key(): no comma, no newline.
            pendingValue_ = false;
            return;
        }
        if (stack_.empty()) {
            check(out_.empty(), "more than one top-level value");
            return;
        }
        check(stack_.back().closer == ']', "object value without key()");
        separate();
    }

    void
    newlineIndent(std::size_t depth)
    {
        out_ += '\n';
        out_.append(2 * depth, ' ');
    }

    /** The one escape routine (policy in the file comment). */
    void
    appendString(const std::string &s)
    {
        static const char kHex[] = "0123456789abcdef";
        out_ += '"';
        for (const char c : s) {
            const auto u = static_cast<unsigned char>(c);
            switch (c) {
              case '"':  out_ += "\\\""; break;
              case '\\': out_ += "\\\\"; break;
              case '\n': out_ += "\\n";  break;
              case '\t': out_ += "\\t";  break;
              case '\r': out_ += "\\r";  break;
              default:
                if (u < 0x20) {
                    out_ += "\\u00";
                    out_ += kHex[u >> 4];
                    out_ += kHex[u & 0xf];
                } else {
                    out_ += c;
                }
            }
        }
        out_ += '"';
    }

    std::string out_;
    std::vector<Frame> stack_;
    bool pendingValue_ = false;
};

/** Thrown on malformed input, with a byte offset for context. */
class JsonParseError : public std::runtime_error
{
  public:
    JsonParseError(const std::string &what, std::size_t at)
        : std::runtime_error(what + " at byte " + std::to_string(at)),
          at_(at)
    {}

    std::size_t at() const { return at_; }

  private:
    std::size_t at_;
};

/** One JSON value; objects/arrays own their children. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    static JsonValue makeNull() { return JsonValue(Kind::Null); }

    static JsonValue
    makeBool(bool b)
    {
        JsonValue v(Kind::Bool);
        v.flag_ = b;
        return v;
    }

    /** @p raw is the verbatim number token, e.g. "-12" or "3.5e2". */
    static JsonValue
    makeNumber(std::string raw)
    {
        JsonValue v(Kind::Number);
        v.text_ = std::move(raw);
        return v;
    }

    static JsonValue
    makeString(std::string s)
    {
        JsonValue v(Kind::String);
        v.text_ = std::move(s);
        return v;
    }

    static JsonValue makeArray() { return JsonValue(Kind::Array); }
    static JsonValue makeObject() { return JsonValue(Kind::Object); }

    bool asBool() const { return flag_; }

    /** Decoded string contents (escapes already resolved). */
    const std::string &asString() const { return text_; }

    /** The number's source spelling. */
    const std::string &raw() const { return text_; }

    double asDouble() const { return std::strtod(text_.c_str(), nullptr); }

    std::uint64_t
    asUint() const
    {
        return std::strtoull(text_.c_str(), nullptr, 10);
    }

    /** True if the number token is a plain non-negative integer. */
    bool
    isUint() const
    {
        if (kind_ != Kind::Number || text_.empty() || text_[0] == '-')
            return false;
        return text_.find_first_of(".eE") == std::string::npos;
    }

    // Array access ---------------------------------------------------
    std::vector<JsonValue> &items() { return items_; }
    const std::vector<JsonValue> &items() const { return items_; }

    // Object access --------------------------------------------------
    using Member = std::pair<std::string, JsonValue>;
    std::vector<Member> &members() { return members_; }
    const std::vector<Member> &members() const { return members_; }

    /** Member lookup; nullptr when absent (or not an object). */
    const JsonValue *
    find(const std::string &key) const
    {
        for (const Member &m : members_) {
            if (m.first == key)
                return &m.second;
        }
        return nullptr;
    }

    /** Canonical JSON: every container Block, numbers verbatim. */
    std::string
    dump() const
    {
        JsonWriter w;
        write(w);
        return w.str() + '\n';
    }

  private:
    explicit JsonValue(Kind k) : kind_(k) {}

    void
    write(JsonWriter &w) const
    {
        switch (kind_) {
          case Kind::Null:   w.null(); return;
          case Kind::Bool:   w.value(flag_); return;
          case Kind::Number: w.rawNumber(text_); return;
          case Kind::String: w.value(text_); return;
          case Kind::Array:
            w.beginArray();
            for (const JsonValue &item : items_)
                item.write(w);
            w.end();
            return;
          case Kind::Object:
            w.beginObject();
            for (const Member &m : members_) {
                w.key(m.first);
                m.second.write(w);
            }
            w.end();
            return;
        }
    }

    Kind kind_ = Kind::Null;
    bool flag_ = false;
    std::string text_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

namespace detail
{

class JsonParser
{
  public:
    explicit JsonParser(const std::string &src) : src_(src) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != src_.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonParseError(what, pos_);
    }

    void
    skipWs()
    {
        while (pos_ < src_.size() &&
               (src_[pos_] == ' ' || src_[pos_] == '\t' ||
                src_[pos_] == '\n' || src_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= src_.size())
            fail("unexpected end of input");
        return src_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeWord(const char *w)
    {
        const std::size_t n = std::strlen(w);
        if (src_.compare(pos_, n, w) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        const char c = peek();
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return JsonValue::makeString(parseString());
          case 't':
            if (consumeWord("true"))
                return JsonValue::makeBool(true);
            fail("bad literal");
          case 'f':
            if (consumeWord("false"))
                return JsonValue::makeBool(false);
            fail("bad literal");
          case 'n':
            if (consumeWord("null"))
                return JsonValue::makeNull();
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v = JsonValue::makeObject();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.members().emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v = JsonValue::makeArray();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.items().push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= src_.size())
                fail("unterminated string");
            const char c = src_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= src_.size())
                fail("unterminated escape");
            const char e = src_[pos_++];
            switch (e) {
              case '"':  out += '"';  break;
              case '\\': out += '\\'; break;
              case '/':  out += '/';  break;
              case 'n':  out += '\n'; break;
              case 't':  out += '\t'; break;
              case 'r':  out += '\r'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'u':  appendUtf8(out, parseEscapedCodePoint()); break;
              default:
                fail("bad escape");
            }
        }
    }

    /** Four hex digits of a \u escape. */
    std::uint32_t
    parseHex4()
    {
        if (pos_ + 4 > src_.size())
            fail("truncated \\u escape");
        std::uint32_t v = 0;
        for (int k = 0; k < 4; ++k) {
            const char c = src_[pos_];
            std::uint32_t d;
            if (c >= '0' && c <= '9')
                d = c - '0';
            else if (c >= 'a' && c <= 'f')
                d = c - 'a' + 10;
            else if (c >= 'A' && c <= 'F')
                d = c - 'A' + 10;
            else
                fail("bad hex digit in \\u escape");
            v = v << 4 | d;
            ++pos_;
        }
        return v;
    }

    /** The code point of a \u escape (its "\u" already consumed),
     *  joining a surrogate pair; a lone surrogate is an error. */
    std::uint32_t
    parseEscapedCodePoint()
    {
        const std::uint32_t hi = parseHex4();
        if (hi >= 0xDC00 && hi <= 0xDFFF)
            fail("unpaired low surrogate");
        if (hi < 0xD800 || hi > 0xDBFF)
            return hi;
        if (src_.compare(pos_, 2, "\\u") != 0)
            fail("unpaired high surrogate");
        pos_ += 2;
        const std::uint32_t lo = parseHex4();
        if (lo < 0xDC00 || lo > 0xDFFF)
            fail("unpaired high surrogate");
        return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
    }

    static void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
            return;
        }
        // Lead byte, then continuation bytes of six bits each.
        const int extra = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        static constexpr unsigned char kLead[] = {0, 0xC0, 0xE0, 0xF0};
        out += static_cast<char>(kLead[extra] | cp >> (6 * extra));
        for (int k = extra - 1; k >= 0; --k)
            out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F));
    }

    bool
    accept(char c)
    {
        if (pos_ >= src_.size() || src_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    /** Consume a run of digits; false if there was none. */
    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < src_.size() &&
               std::isdigit(static_cast<unsigned char>(src_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    /** RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)? */
    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        accept('-');
        if (!accept('0') && !digits())
            fail("bad number");
        if (accept('.') && !digits())
            fail("bad number: no digit after '.'");
        if (accept('e') || accept('E')) {
            if (!accept('+'))
                accept('-');
            if (!digits())
                fail("bad number: no digit in exponent");
        }
        return JsonValue::makeNumber(src_.substr(start, pos_ - start));
    }

    const std::string &src_;
    std::size_t pos_ = 0;
};

} // namespace detail

/** Parse @p src; throws JsonParseError on malformed input. */
inline JsonValue
parseJson(const std::string &src)
{
    return detail::JsonParser(src).parse();
}

} // namespace upr

#endif // UPR_COMMON_JSON_HH
