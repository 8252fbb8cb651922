#include "workloads/jsonish.hh"

#include <cctype>
#include <utility>

#include "linalg/error.hh"
#include "workloads/fields.hh"

namespace leo::workloads::jsonish
{

bool
Value::asBool() const
{
    require(kind_ == Kind::Bool, "jsonish: value is not a boolean");
    return bool_;
}

const std::string &
Value::numberText() const
{
    require(kind_ == Kind::Number, "jsonish: value is not a number");
    return string_;
}

const std::string &
Value::asString() const
{
    require(kind_ == Kind::String, "jsonish: value is not a string");
    return string_;
}

const std::vector<Value> &
Value::items() const
{
    require(kind_ == Kind::Array, "jsonish: value is not an array");
    return items_;
}

const std::map<std::string, Value> &
Value::members() const
{
    require(kind_ == Kind::Object, "jsonish: value is not an object");
    return members_;
}

bool
Value::has(const std::string &key) const
{
    return kind_ == Kind::Object &&
           members_.find(key) != members_.end();
}

const Value &
Value::at(const std::string &key) const
{
    const auto &m = members();
    const auto it = m.find(key);
    require(it != m.end(), "jsonish: missing member '" + key + "'");
    return it->second;
}

Value
Value::makeNull()
{
    return Value{};
}

Value
Value::makeBool(bool b)
{
    Value v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::makeNumber(std::string text)
{
    Value v;
    v.kind_ = Kind::Number;
    v.string_ = std::move(text);
    return v;
}

Value
Value::makeString(std::string s)
{
    Value v;
    v.kind_ = Kind::String;
    v.string_ = std::move(s);
    return v;
}

Value
Value::makeArray(std::vector<Value> items)
{
    Value v;
    v.kind_ = Kind::Array;
    v.items_ = std::move(items);
    return v;
}

Value
Value::makeObject(std::map<std::string, Value> members)
{
    Value v;
    v.kind_ = Kind::Object;
    v.members_ = std::move(members);
    return v;
}

namespace
{

/** Recursive-descent parser over the whole document string. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value parseDocument()
    {
        Value v = parseValue();
        skipSpace();
        require(pos_ == text_.size(),
                where() + "trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &msg) const
    {
        fatal(where() + msg);
    }

    std::string where() const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        return "jsonish: line " + std::to_string(line) + " col " +
               std::to_string(col) + ": ";
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of document");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consumeIf(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Value parseValue()
    {
        const char c = peek();
        switch (c) {
        case '{':
            return parseObject();
        case '[':
            return parseArray();
        case '"':
            return Value::makeString(parseString());
        case 't':
            parseKeyword("true");
            return Value::makeBool(true);
        case 'f':
            parseKeyword("false");
            return Value::makeBool(false);
        case 'n':
            parseKeyword("null");
            return Value::makeNull();
        default:
            return parseNumber();
        }
    }

    void parseKeyword(const char *kw)
    {
        for (const char *p = kw; *p != '\0'; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("bad keyword (expected '") + kw +
                     "')");
            ++pos_;
        }
    }

    Value parseObject()
    {
        expect('{');
        std::map<std::string, Value> members;
        if (consumeIf('}'))
            return Value::makeObject(std::move(members));
        while (true) {
            if (peek() != '"')
                fail("object key must be a string");
            std::string key = parseString();
            expect(':');
            Value v = parseValue();
            if (!members.emplace(std::move(key), std::move(v))
                     .second)
                fail("duplicate object key");
            if (consumeIf(','))
                continue;
            expect('}');
            return Value::makeObject(std::move(members));
        }
    }

    Value parseArray()
    {
        expect('[');
        std::vector<Value> items;
        if (consumeIf(']'))
            return Value::makeArray(std::move(items));
        while (true) {
            items.push_back(parseValue());
            if (consumeIf(','))
                continue;
            expect(']');
            return Value::makeArray(std::move(items));
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
            case '"':
                out.push_back('"');
                break;
            case '\\':
                out.push_back('\\');
                break;
            case '/':
                out.push_back('/');
                break;
            case 'b':
                out.push_back('\b');
                break;
            case 'f':
                out.push_back('\f');
                break;
            case 'n':
                out.push_back('\n');
                break;
            case 'r':
                out.push_back('\r');
                break;
            case 't':
                out.push_back('\t');
                break;
            case 'u':
                appendUnicodeEscape(out);
                break;
            default:
                fail("unknown escape");
            }
        }
    }

    void appendUnicodeEscape(std::string &out)
    {
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
                fail("truncated \\u escape");
            const char c = text_[pos_++];
            cp <<= 4;
            if (c >= '0' && c <= '9')
                cp |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                cp |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                cp |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("bad hex digit in \\u escape");
        }
        if (cp >= 0xD800 && cp <= 0xDFFF)
            fail("surrogate \\u escapes are not supported");
        // UTF-8 encode the BMP code point.
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    Value parseNumber()
    {
        skipSpace();
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(
                    text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        std::string tok = text_.substr(start, pos_ - start);
        pos_ = start; // Errors point at the number's first character.
        fields::parseFinite(tok, where() + "number");
        pos_ = start + tok.size();
        return Value::makeNumber(std::move(tok));
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    Parser p(text);
    return p.parseDocument();
}

} // namespace leo::workloads::jsonish
